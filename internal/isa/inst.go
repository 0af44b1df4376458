package isa

import "fmt"

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

// IsControl reports whether the instruction can redirect the PC.
func (in Inst) IsControl() bool { return in.IsBranch() || in.IsJump() }

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
// one. Writes to x0 are discarded by the architecture and reported as no
// destination.
func (in Inst) Dest() (Reg, bool) {
	switch in.Op.Class() {
	case ClassStore, ClassBranch, ClassSystem, ClassInvalid:
		return RegNone, false
	}
	if in.Op == OpNOP || in.Rd == RegNone || in.Rd == X0 {
		return RegNone, false
	}
	return in.Rd, true
}

// Sources returns the architectural registers the instruction reads, in
// (rs1, rs2, rs3) order, with RegNone for absent slots. Reads of x0 are
// reported as RegNone because x0 carries the constant zero and creates no
// dataflow dependency.
func (in Inst) Sources() [3]Reg {
	srcs := [3]Reg{RegNone, RegNone, RegNone}
	norm := func(r Reg) Reg {
		if r == X0 || r == RegNone {
			return RegNone
		}
		return r
	}
	switch in.Op {
	case OpLUI, OpAUIPC, OpJAL, OpNOP, OpECALL, OpEBREAK, OpFENCE:
		// no register sources
	case OpFMADDS, OpFMSUBS, OpFNMADDS, OpFNMSUBS:
		srcs[0], srcs[1], srcs[2] = norm(in.Rs1), norm(in.Rs2), norm(in.Rs3)
	default:
		srcs[0] = norm(in.Rs1)
		if usesRs2(in.Op) {
			srcs[1] = norm(in.Rs2)
		}
	}
	return srcs
}

// usesRs2 reports whether op reads a second register operand.
func usesRs2(op Op) bool {
	switch op {
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU,
		OpSB, OpSH, OpSW, OpFSW,
		OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU,
		OpFADDS, OpFSUBS, OpFMULS, OpFDIVS, OpFMINS, OpFMAXS,
		OpFEQS, OpFLTS, OpFLES, OpFSGNJS, OpFSGNJNS, OpFSGNJXS:
		return true
	}
	return false
}

// String renders the instruction in conventional assembly syntax.
func (in Inst) String() string {
	op := in.Op
	switch {
	case op == OpNOP:
		return "nop"
	case op == OpECALL || op == OpEBREAK || op == OpFENCE:
		return op.String()
	case op == OpLUI || op == OpAUIPC:
		return fmt.Sprintf("%s %s, 0x%x", op, in.Rd, uint32(in.Imm)>>12)
	case op == OpJAL:
		return fmt.Sprintf("%s %s, %d", op, in.Rd, in.Imm)
	case op == OpJALR:
		return fmt.Sprintf("%s %s, %d(%s)", op, in.Rd, in.Imm, in.Rs1)
	case in.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", op, in.Rd, in.Imm, in.Rs1)
	case in.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", op, in.Rs2, in.Imm, in.Rs1)
	case in.IsBranch():
		return fmt.Sprintf("%s %s, %s, %d", op, in.Rs1, in.Rs2, in.Imm)
	case op == OpFSQRTS || op == OpFCVTWS || op == OpFCVTWUS || op == OpFCVTSW ||
		op == OpFCVTSWU || op == OpFMVXW || op == OpFMVWX || op == OpFCLASSS:
		return fmt.Sprintf("%s %s, %s", op, in.Rd, in.Rs1)
	case op == OpFMADDS || op == OpFMSUBS || op == OpFNMADDS || op == OpFNMSUBS:
		return fmt.Sprintf("%s %s, %s, %s, %s", op, in.Rd, in.Rs1, in.Rs2, in.Rs3)
	case op.HasImm():
		return fmt.Sprintf("%s %s, %s, %d", op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", op, in.Rd, in.Rs1, in.Rs2)
	}
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
