// Package sim implements a functional RV32IMF interpreter. It is the
// correctness oracle of the reproduction: the CPU timing model and the
// spatial accelerator are both differentially tested against it, and the
// MESA controller monitors its retired-instruction stream the way the paper's
// hardware monitors the core's decode stage.
package sim

import (
	"fmt"

	"mesa/internal/alu"
	"mesa/internal/isa"
	"mesa/internal/mem"
)

// Event describes one retired instruction, delivered to Tracers.
type Event struct {
	Inst   isa.Inst
	PC     uint32
	NextPC uint32
	Taken  bool // valid for branches
	Addr   uint32
	IsMem  bool
}

// Tracer observes retired instructions. The MESA controller attaches one to
// monitor execution (function F1 in the paper).
type Tracer interface {
	Trace(ev Event)
}

// Stats counts retired instructions by class.
type Stats struct {
	Retired     uint64
	ByClass     [isa.NumClasses]uint64
	BranchTaken uint64
}

// Machine is a functional RV32IMF machine: 32 integer + 32 FP registers, a
// PC, and a byte-addressable memory. Execution is exact; no timing is
// modeled here.
type Machine struct {
	Regs [isa.NumRegs]uint32
	PC   uint32
	Mem  *mem.Memory

	Prog    *isa.Program
	Halted  bool
	Stats   Stats
	tracers []Tracer
}

// New creates a machine executing prog against memory m, starting at the
// program base.
func New(prog *isa.Program, m *mem.Memory) *Machine {
	return &Machine{Mem: m, Prog: prog, PC: prog.Base}
}

// Attach registers a tracer to observe every retired instruction.
func (mc *Machine) Attach(t Tracer) { mc.tracers = append(mc.tracers, t) }

// Reg returns the value of r (x0 reads as zero).
func (mc *Machine) Reg(r isa.Reg) uint32 {
	if r == isa.X0 || r == isa.RegNone {
		return 0
	}
	return mc.Regs[r]
}

// SetReg writes a register (writes to x0 are ignored).
func (mc *Machine) SetReg(r isa.Reg, v uint32) {
	if r == isa.X0 || r == isa.RegNone {
		return
	}
	mc.Regs[r] = v
}

// SetF sets a floating-point register from a float32.
func (mc *Machine) SetF(r isa.Reg, f float32) { mc.SetReg(r, alu.F32(f)) }

// F reads a floating-point register as a float32.
func (mc *Machine) F(r isa.Reg) float32 { return alu.ToF32(mc.Reg(r)) }

// Step executes one instruction. ECALL halts the machine (the convention the
// kernels use to signal completion). An unmapped PC is an error.
func (mc *Machine) Step() error {
	if mc.Halted {
		return fmt.Errorf("sim: machine is halted")
	}
	in, ok := mc.Prog.At(mc.PC)
	if !ok {
		return fmt.Errorf("sim: PC %#x outside program [%#x, %#x)", mc.PC, mc.Prog.Base, mc.Prog.End())
	}
	ev := Event{Inst: in, PC: mc.PC, NextPC: mc.PC + 4}

	switch {
	case in.Op == isa.OpECALL:
		mc.Halted = true
	case in.Op == isa.OpEBREAK || in.Op == isa.OpFENCE || in.Op == isa.OpNOP:
		// no architectural effect
	case in.Op == isa.OpCSRRW || in.Op == isa.OpCSRRS || in.Op == isa.OpCSRRC:
		// CSRs are modeled as zero; reads return 0, writes are dropped.
		mc.SetReg(in.Rd, 0)

	case in.IsLoad():
		addr := alu.EffAddr(mc.Reg(in.Rs1), in.Imm)
		v, err := mc.Mem.Load(in.Op, addr)
		if err != nil {
			return err
		}
		mc.SetReg(in.Rd, v)
		ev.Addr, ev.IsMem = addr, true

	case in.IsStore():
		addr := alu.EffAddr(mc.Reg(in.Rs1), in.Imm)
		if err := mc.Mem.Store(in.Op, addr, mc.Reg(in.Rs2)); err != nil {
			return err
		}
		ev.Addr, ev.IsMem = addr, true

	case in.IsBranch():
		taken, err := alu.EvalBranch(in.Op, mc.Reg(in.Rs1), mc.Reg(in.Rs2))
		if err != nil {
			return err
		}
		if taken {
			ev.NextPC = in.BranchTarget()
			mc.Stats.BranchTaken++
		}
		ev.Taken = taken

	case in.Op == isa.OpJAL:
		mc.SetReg(in.Rd, mc.PC+4)
		ev.NextPC = in.BranchTarget()
		ev.Taken = true

	case in.Op == isa.OpJALR:
		target := (mc.Reg(in.Rs1) + uint32(in.Imm)) &^ 1
		mc.SetReg(in.Rd, mc.PC+4)
		ev.NextPC = target
		ev.Taken = true

	case in.Op == isa.OpAUIPC:
		mc.SetReg(in.Rd, mc.PC+uint32(in.Imm))

	default:
		a := mc.Reg(in.Rs1)
		b := mc.Reg(in.Rs2)
		if in.Op.HasImm() {
			b = uint32(in.Imm)
		}
		c := mc.Reg(in.Rs3)
		v, err := alu.Eval(in.Op, a, b, c)
		if err != nil {
			return err
		}
		mc.SetReg(in.Rd, v)
	}

	mc.Stats.Retired++
	mc.Stats.ByClass[in.Class()]++
	mc.PC = ev.NextPC
	for _, t := range mc.tracers {
		t.Trace(ev)
	}
	return nil
}

// Run executes until the machine halts or maxSteps instructions retire.
// It returns the number of instructions retired by this call.
func (mc *Machine) Run(maxSteps uint64) (uint64, error) {
	var n uint64
	for !mc.Halted && n < maxSteps {
		if err := mc.Step(); err != nil {
			return n, err
		}
		n++
	}
	if !mc.Halted {
		return n, fmt.Errorf("sim: did not halt within %d steps", maxSteps)
	}
	return n, nil
}
