// Package asm provides tools for constructing RV32IMF programs: a fluent
// Builder with label support and a small text assembler. Kernels in
// internal/kernels are written against the Builder.
package asm

import (
	"fmt"

	"mesa/internal/isa"
)

type fixup struct {
	index int    // instruction index needing patching
	label string // target label
}

// Builder incrementally constructs a Program. Branch and jump instructions
// reference labels, resolved when Program is called.
type Builder struct {
	base   uint32
	insts  []isa.Inst
	labels map[string]int
	fixups []fixup
	err    error
}

// NewBuilder returns a Builder for a program based at the given address.
func NewBuilder(base uint32) *Builder {
	return &Builder{base: base, labels: make(map[string]int)}
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail(fmt.Errorf("asm: duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.insts)
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) *Builder {
	in.Addr = b.base + uint32(4*len(b.insts))
	b.insts = append(b.insts, in)
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first error recorded while building.
func (b *Builder) Err() error { return b.err }

// Program resolves labels and returns the built program. Every instruction —
// including branch offsets produced by label resolution — is validated
// against the machine encoding, so out-of-range immediates surface here as
// errors rather than as panics deeper in the pipeline. Fuzz-generated
// programs rely on this: a randomly grown loop body whose branch span
// overflows the 13-bit B-type range must fail cleanly.
func (b *Builder) Program() (*isa.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		offset := int32(4 * (target - f.index))
		b.insts[f.index].Imm = offset
	}
	for i, in := range b.insts {
		if _, err := isa.Encode(in); err != nil {
			return nil, fmt.Errorf("asm: inst %d at %#x: %w", i, in.Addr, err)
		}
	}
	symbols := make(map[string]uint32, len(b.labels))
	for name, idx := range b.labels {
		symbols[name] = b.base + uint32(4*idx)
	}
	return &isa.Program{Base: b.base, Insts: b.insts, Symbols: symbols}, nil
}

// MustProgram is Program but panics on error, for statically known-good code.
func (b *Builder) MustProgram() *isa.Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

func (b *Builder) r3(op isa.Op, rd, rs1, rs2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: isa.RegNone})
}

func (b *Builder) ri(op isa.Op, rd, rs1 isa.Reg, imm int32) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: imm})
}

// emitTo appends in, whose Imm Program sets to label's PC-relative offset.
func (b *Builder) emitTo(in isa.Inst, label string) *Builder {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label})
	return b.Emit(in)
}

func (b *Builder) branch(op isa.Op, rs1, rs2 isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: op, Rd: isa.RegNone, Rs1: rs1, Rs2: rs2, Rs3: isa.RegNone}, label)
}

// Integer register-register operations.

func (b *Builder) ADD(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpADD, rd, rs1, rs2) }
func (b *Builder) SUB(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpSUB, rd, rs1, rs2) }
func (b *Builder) SLL(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpSLL, rd, rs1, rs2) }
func (b *Builder) SLT(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpSLT, rd, rs1, rs2) }
func (b *Builder) SLTU(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpSLTU, rd, rs1, rs2) }
func (b *Builder) XOR(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpXOR, rd, rs1, rs2) }
func (b *Builder) SRL(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpSRL, rd, rs1, rs2) }
func (b *Builder) SRA(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpSRA, rd, rs1, rs2) }
func (b *Builder) OR(rd, rs1, rs2 isa.Reg) *Builder   { return b.r3(isa.OpOR, rd, rs1, rs2) }
func (b *Builder) AND(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpAND, rd, rs1, rs2) }

// RV32M.

func (b *Builder) MUL(rd, rs1, rs2 isa.Reg) *Builder    { return b.r3(isa.OpMUL, rd, rs1, rs2) }
func (b *Builder) MULH(rd, rs1, rs2 isa.Reg) *Builder   { return b.r3(isa.OpMULH, rd, rs1, rs2) }
func (b *Builder) MULHU(rd, rs1, rs2 isa.Reg) *Builder  { return b.r3(isa.OpMULHU, rd, rs1, rs2) }
func (b *Builder) MULHSU(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpMULHSU, rd, rs1, rs2) }
func (b *Builder) DIV(rd, rs1, rs2 isa.Reg) *Builder    { return b.r3(isa.OpDIV, rd, rs1, rs2) }
func (b *Builder) DIVU(rd, rs1, rs2 isa.Reg) *Builder   { return b.r3(isa.OpDIVU, rd, rs1, rs2) }
func (b *Builder) REM(rd, rs1, rs2 isa.Reg) *Builder    { return b.r3(isa.OpREM, rd, rs1, rs2) }
func (b *Builder) REMU(rd, rs1, rs2 isa.Reg) *Builder   { return b.r3(isa.OpREMU, rd, rs1, rs2) }

// Integer register-immediate operations.

func (b *Builder) ADDI(rd, rs1 isa.Reg, imm int32) *Builder  { return b.ri(isa.OpADDI, rd, rs1, imm) }
func (b *Builder) SLTI(rd, rs1 isa.Reg, imm int32) *Builder  { return b.ri(isa.OpSLTI, rd, rs1, imm) }
func (b *Builder) SLTIU(rd, rs1 isa.Reg, imm int32) *Builder { return b.ri(isa.OpSLTIU, rd, rs1, imm) }
func (b *Builder) XORI(rd, rs1 isa.Reg, imm int32) *Builder  { return b.ri(isa.OpXORI, rd, rs1, imm) }
func (b *Builder) ORI(rd, rs1 isa.Reg, imm int32) *Builder   { return b.ri(isa.OpORI, rd, rs1, imm) }
func (b *Builder) ANDI(rd, rs1 isa.Reg, imm int32) *Builder  { return b.ri(isa.OpANDI, rd, rs1, imm) }
func (b *Builder) SLLI(rd, rs1 isa.Reg, sh int32) *Builder   { return b.ri(isa.OpSLLI, rd, rs1, sh) }
func (b *Builder) SRLI(rd, rs1 isa.Reg, sh int32) *Builder   { return b.ri(isa.OpSRLI, rd, rs1, sh) }
func (b *Builder) SRAI(rd, rs1 isa.Reg, sh int32) *Builder   { return b.ri(isa.OpSRAI, rd, rs1, sh) }

// LUI loads the upper 20 bits; imm is the full 32-bit value whose low 12 bits
// must be zero.
func (b *Builder) LUI(rd isa.Reg, imm int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLUI, Rd: rd, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: imm})
}

// LI loads an arbitrary 32-bit constant using LUI+ADDI as needed.
func (b *Builder) LI(rd isa.Reg, value int32) *Builder {
	lo := value << 20 >> 20 // sign-extended low 12 bits
	hi := value - lo
	switch {
	case hi == 0:
		return b.ADDI(rd, isa.X0, lo)
	case lo == 0:
		return b.LUI(rd, hi)
	default:
		b.LUI(rd, hi)
		return b.ADDI(rd, rd, lo)
	}
}

// MV copies rs1 into rd.
func (b *Builder) MV(rd, rs1 isa.Reg) *Builder { return b.ADDI(rd, rs1, 0) }

// NOP emits a no-op.
func (b *Builder) NOP() *Builder { return b.Emit(isa.Nop()) }

// Memory operations. Offsets follow assembly convention: op rd, imm(rs1).

func (b *Builder) LB(rd isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.ri(isa.OpLB, rd, rs1, imm)
}
func (b *Builder) LH(rd isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.ri(isa.OpLH, rd, rs1, imm)
}
func (b *Builder) LW(rd isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.ri(isa.OpLW, rd, rs1, imm)
}
func (b *Builder) LBU(rd isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.ri(isa.OpLBU, rd, rs1, imm)
}
func (b *Builder) LHU(rd isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.ri(isa.OpLHU, rd, rs1, imm)
}
func (b *Builder) FLW(rd isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.ri(isa.OpFLW, rd, rs1, imm)
}

func (b *Builder) store(op isa.Op, rs2 isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: isa.RegNone, Rs1: rs1, Rs2: rs2, Rs3: isa.RegNone, Imm: imm})
}

func (b *Builder) SB(rs2 isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.store(isa.OpSB, rs2, imm, rs1)
}
func (b *Builder) SH(rs2 isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.store(isa.OpSH, rs2, imm, rs1)
}
func (b *Builder) SW(rs2 isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.store(isa.OpSW, rs2, imm, rs1)
}
func (b *Builder) FSW(rs2 isa.Reg, imm int32, rs1 isa.Reg) *Builder {
	return b.store(isa.OpFSW, rs2, imm, rs1)
}

// Branches to labels.

func (b *Builder) BEQ(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBEQ, rs1, rs2, label)
}
func (b *Builder) BNE(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBNE, rs1, rs2, label)
}
func (b *Builder) BLT(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBLT, rs1, rs2, label)
}
func (b *Builder) BGE(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBGE, rs1, rs2, label)
}
func (b *Builder) BLTU(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBLTU, rs1, rs2, label)
}
func (b *Builder) BGEU(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBGEU, rs1, rs2, label)
}

// JAL jumps to a label, writing the return address to rd.
func (b *Builder) JAL(rd isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.OpJAL, Rd: rd, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone}, label)
}

// J is an unconditional jump to a label (JAL x0).
func (b *Builder) J(label string) *Builder { return b.JAL(isa.X0, label) }

// JALR jumps to rs1+imm, writing the return address to rd.
func (b *Builder) JALR(rd, rs1 isa.Reg, imm int32) *Builder {
	return b.ri(isa.OpJALR, rd, rs1, imm)
}

// RET returns via the return-address register.
func (b *Builder) RET() *Builder { return b.JALR(isa.X0, isa.RegRA, 0) }

// ECALL emits an environment call, used by kernels to signal completion to
// the simulators.
func (b *Builder) ECALL() *Builder {
	return b.Emit(isa.Inst{Op: isa.OpECALL, Rd: isa.RegNone, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone})
}

// Floating-point operations.

func (b *Builder) FADD(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFADDS, rd, rs1, rs2) }
func (b *Builder) FSUB(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFSUBS, rd, rs1, rs2) }
func (b *Builder) FMUL(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFMULS, rd, rs1, rs2) }
func (b *Builder) FDIV(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFDIVS, rd, rs1, rs2) }
func (b *Builder) FMIN(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFMINS, rd, rs1, rs2) }
func (b *Builder) FMAX(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFMAXS, rd, rs1, rs2) }
func (b *Builder) FSQRT(rd, rs1 isa.Reg) *Builder     { return b.r3(isa.OpFSQRTS, rd, rs1, isa.RegNone) }

func (b *Builder) fma(op isa.Op, rd, rs1, rs2, rs3 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: rs3})
}

func (b *Builder) FMADD(rd, rs1, rs2, rs3 isa.Reg) *Builder {
	return b.fma(isa.OpFMADDS, rd, rs1, rs2, rs3)
}
func (b *Builder) FMSUB(rd, rs1, rs2, rs3 isa.Reg) *Builder {
	return b.fma(isa.OpFMSUBS, rd, rs1, rs2, rs3)
}
func (b *Builder) FNMADD(rd, rs1, rs2, rs3 isa.Reg) *Builder {
	return b.fma(isa.OpFNMADDS, rd, rs1, rs2, rs3)
}
func (b *Builder) FNMSUB(rd, rs1, rs2, rs3 isa.Reg) *Builder {
	return b.fma(isa.OpFNMSUBS, rd, rs1, rs2, rs3)
}

func (b *Builder) FCVTWS(rd, rs1 isa.Reg) *Builder   { return b.r3(isa.OpFCVTWS, rd, rs1, isa.RegNone) }
func (b *Builder) FCVTSW(rd, rs1 isa.Reg) *Builder   { return b.r3(isa.OpFCVTSW, rd, rs1, isa.RegNone) }
func (b *Builder) FMVXW(rd, rs1 isa.Reg) *Builder    { return b.r3(isa.OpFMVXW, rd, rs1, isa.RegNone) }
func (b *Builder) FMVWX(rd, rs1 isa.Reg) *Builder    { return b.r3(isa.OpFMVWX, rd, rs1, isa.RegNone) }
func (b *Builder) FEQ(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFEQS, rd, rs1, rs2) }
func (b *Builder) FLT(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFLTS, rd, rs1, rs2) }
func (b *Builder) FLE(rd, rs1, rs2 isa.Reg) *Builder { return b.r3(isa.OpFLES, rd, rs1, rs2) }

// FMV copies one FP register to another via sign injection.
func (b *Builder) FMV(rd, rs1 isa.Reg) *Builder { return b.r3(isa.OpFSGNJS, rd, rs1, rs1) }

// Len reports the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// PC returns the address the next emitted instruction will have.
func (b *Builder) PC() uint32 { return b.base + uint32(4*len(b.insts)) }
