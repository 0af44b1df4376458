package isa

import "strconv"

// Inst is a decoded RV32IMF instruction. Rs3 is used only by the fused
// multiply-add family; unused operand slots hold RegNone. Imm holds the
// sign-extended immediate for formats that carry one (for branches and jumps
// it is the byte offset relative to the instruction's own address).
type Inst struct {
	Op   Op
	Rd   Reg
	Rs1  Reg
	Rs2  Reg
	Rs3  Reg
	Imm  int32
	Addr uint32 // instruction address, filled in when placed in a Program
}

// Nop returns the canonical no-op.
func Nop() Inst {
	return Inst{Op: OpNOP, Rd: RegNone, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone}
}

// Class reports the functional-unit class of the instruction.
func (in Inst) Class() Class { return in.Op.Class() }

// IsLoad reports whether the instruction reads memory.
func (in Inst) IsLoad() bool { return in.Op.Class() == ClassLoad }

// IsStore reports whether the instruction writes memory.
func (in Inst) IsStore() bool { return in.Op.Class() == ClassStore }

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool { return in.IsLoad() || in.IsStore() }

// IsBranch reports whether the instruction is a conditional branch.
func (in Inst) IsBranch() bool { return in.Op.Class() == ClassBranch }

// IsJump reports whether the instruction is an unconditional jump.
func (in Inst) IsJump() bool { return in.Op.Class() == ClassJump }

// IsSystem reports whether the instruction is a system instruction, which
// disqualifies a loop from acceleration under criterion C2.
func (in Inst) IsSystem() bool { return in.Op.Class() == ClassSystem }

// BranchTarget returns the target address of a PC-relative branch or JAL.
// It must not be called on other instructions.
func (in Inst) BranchTarget() uint32 {
	return in.Addr + uint32(in.Imm)
}

// IsBackwardBranch reports whether the instruction is a conditional branch or
// JAL with a negative offset — the loop-closing pattern the loop-stream
// detector looks for.
func (in Inst) IsBackwardBranch() bool {
	return (in.IsBranch() || in.Op == OpJAL) && in.Imm < 0
}

// Dest returns the destination register and whether the instruction writes
// one, as the op table records it: csrrw/csrrs/csrrc write rd like any other
// op. Writes to x0 are discarded by the architecture and reported as no
// destination.
func (in Inst) Dest() (Reg, bool) {
	if in.Op.info().regs[0] == '-' || in.Rd == RegNone || in.Rd == X0 {
		return RegNone, false
	}
	return in.Rd, true
}

// Sources returns the architectural registers the instruction reads, in
// (rs1, rs2, rs3) order, with RegNone for absent slots. Reads of x0 are
// reported as RegNone because x0 carries the constant zero and creates no
// dataflow dependency.
func (in Inst) Sources() [3]Reg {
	r := in.Op.info()
	srcs := [3]Reg{RegNone, RegNone, RegNone}
	for i, reg := range [3]Reg{in.Rs1, in.Rs2, in.Rs3} {
		if r.regs[i+1] != '-' && reg != X0 {
			srcs[i] = reg
		}
	}
	return srcs
}

// String renders the instruction in conventional assembly syntax: the
// mnemonic, then the op's operands (Op.Operands) separated by commas.
func (in Inst) String() string {
	b := []byte(in.Op.String())
	for i, o := range in.Op.Operands() {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch o {
		case OperandRd:
			b = append(b, in.Rd.String()...)
		case OperandRs1:
			b = append(b, in.Rs1.String()...)
		case OperandRs2:
			b = append(b, in.Rs2.String()...)
		case OperandRs3:
			b = append(b, in.Rs3.String()...)
		case OperandImm, OperandTarget:
			b = strconv.AppendInt(b, int64(in.Imm), 10)
		case OperandUpper:
			b = strconv.AppendUint(append(b, "0x"...), uint64(uint32(in.Imm)>>12), 16)
		case OperandMem:
			b = append(strconv.AppendInt(b, int64(in.Imm), 10), '(')
			b = append(append(b, in.Rs1.String()...), ')')
		}
	}
	return string(b)
}

// Program is a contiguous sequence of instructions starting at Base. Symbols
// maps label names to instruction addresses.
type Program struct {
	Base    uint32
	Insts   []Inst
	Symbols map[string]uint32
}

// At returns the instruction at address addr and whether it exists.
func (p *Program) At(addr uint32) (Inst, bool) {
	if addr < p.Base || (addr-p.Base)%4 != 0 {
		return Inst{}, false
	}
	idx := int(addr-p.Base) / 4
	if idx >= len(p.Insts) {
		return Inst{}, false
	}
	return p.Insts[idx], true
}

// End returns the address one past the last instruction.
func (p *Program) End() uint32 { return p.Base + uint32(4*len(p.Insts)) }

// Slice returns the instructions with addresses in [start, end).
func (p *Program) Slice(start, end uint32) []Inst {
	if start < p.Base {
		start = p.Base
	}
	if end > p.End() {
		end = p.End()
	}
	if start >= end {
		return nil
	}
	return p.Insts[(start-p.Base)/4 : (end-p.Base)/4]
}

// LoopBody returns the loop that starts at start: the instructions from
// start through the last backward branch that targets it, or nil when no
// backward branch does.
func (p *Program) LoopBody(start uint32) []Inst {
	for i := len(p.Insts) - 1; i >= 0; i-- {
		if in := p.Insts[i]; in.IsBackwardBranch() && in.BranchTarget() == start {
			return p.Slice(start, in.Addr+4)
		}
	}
	return nil
}
