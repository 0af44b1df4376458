package isa

import "fmt"

// format is an instruction's operand format: which operands its assembly
// syntax names and where its immediate lives in the machine word.
type format uint8

const (
	fmtNone  format = iota // no operands: ecall, ebreak, fence, nop
	fmtR                   // rd, rs1, rs2
	fmtR1                  // rd, rs1: fsqrt, conversions, moves, fclass
	fmtR4                  // rd, rs1, rs2, rs3: the fused multiply-adds
	fmtI                   // rd, rs1, signed 12-bit immediate
	fmtShift               // rd, rs1, 5-bit shift amount
	fmtCSR                 // rd, rs1, unsigned 12-bit CSR number
	fmtLoad                // rd, imm(rs1), signed 12-bit offset; also jalr
	fmtStore               // rs2, imm(rs1), signed 12-bit offset
	fmtB                   // rs1, rs2, ±4 KiB even branch offset
	fmtU                   // rd, upper 20 bits
	fmtJ                   // rd, ±1 MiB even jump offset
)

// Operand is one operand of an instruction's assembly syntax. Inst.String
// prints, and the assembler parses, the same operand list per format.
type Operand uint8

const (
	OperandRd     Operand = iota // destination register
	OperandRs1                   // first source register
	OperandRs2                   // second source register
	OperandRs3                   // third source register
	OperandImm                   // immediate, in decimal
	OperandUpper                 // upper immediate: Imm>>12, in hex
	OperandMem                   // Imm(Rs1)
	OperandTarget                // PC-relative byte offset (a label in source)
)

var operandNames = [...]string{"rd", "rs1", "rs2", "rs3", "imm", "imm", "imm(rs1)", "target"}

func (o Operand) String() string { return operandNames[o] }

var formatOperands = [...][]Operand{
	fmtR:     {OperandRd, OperandRs1, OperandRs2},
	fmtR1:    {OperandRd, OperandRs1},
	fmtR4:    {OperandRd, OperandRs1, OperandRs2, OperandRs3},
	fmtI:     {OperandRd, OperandRs1, OperandImm},
	fmtShift: {OperandRd, OperandRs1, OperandImm},
	fmtCSR:   {OperandRd, OperandRs1, OperandImm},
	fmtLoad:  {OperandRd, OperandMem},
	fmtStore: {OperandRs2, OperandMem},
	fmtB:     {OperandRs1, OperandRs2, OperandTarget},
	fmtU:     {OperandRd, OperandUpper},
	fmtJ:     {OperandRd, OperandTarget},
}

// opInfo is one op's row of the instruction table.
type opInfo struct {
	name   string
	class  Class
	format format
	// regs gives the register file of rd, rs1, rs2 and rs3 in that order:
	// 'x' integer, 'f' floating point, '-' no such operand.
	regs string
	// match is the encoding's fixed bits; Encode ORs the operand fields
	// into it. Decode picks the op when word&mask == match; mask 0 marks
	// an op the decoder never produces.
	match, mask uint32
}

// Decode masks: which fields beyond the major opcode select the op. A field
// outside the mask is ignored when decoding and encoded as match's zero.
const (
	maskOpcode = 0x0000007F // lui, auipc, jal, fence (its fields are ignored)
	maskF3     = 0x0000707F // funct3
	maskF3F7   = 0xFE00707F // funct3 and funct7
	maskF7     = 0xFE00007F // funct7; funct3 is a rounding mode (or ignored)
	maskF7Rs2  = 0xFFF0007F // funct7 and the rs2 field that selects a conversion
	maskFMA    = 0x0600007F // the fmt field: single precision only
	maskSystem = 0xFFF0707F // funct3 and the 12-bit immediate (ebreak)
)

// opTable is the one definition of every op's mnemonic, functional-unit
// class, operand format, register files and encoding.
var opTable = [numOps]opInfo{
	OpInvalid: {name: "invalid", regs: "----"},

	OpADD:  {"add", ClassALU, fmtR, "xxx-", 0x00000033, maskF3F7},
	OpSUB:  {"sub", ClassALU, fmtR, "xxx-", 0x40000033, maskF3F7},
	OpSLL:  {"sll", ClassALU, fmtR, "xxx-", 0x00001033, maskF3F7},
	OpSLT:  {"slt", ClassALU, fmtR, "xxx-", 0x00002033, maskF3F7},
	OpSLTU: {"sltu", ClassALU, fmtR, "xxx-", 0x00003033, maskF3F7},
	OpXOR:  {"xor", ClassALU, fmtR, "xxx-", 0x00004033, maskF3F7},
	OpSRL:  {"srl", ClassALU, fmtR, "xxx-", 0x00005033, maskF3F7},
	OpSRA:  {"sra", ClassALU, fmtR, "xxx-", 0x40005033, maskF3F7},
	OpOR:   {"or", ClassALU, fmtR, "xxx-", 0x00006033, maskF3F7},
	OpAND:  {"and", ClassALU, fmtR, "xxx-", 0x00007033, maskF3F7},

	OpADDI:  {"addi", ClassALU, fmtI, "xx--", 0x00000013, maskF3},
	OpSLTI:  {"slti", ClassALU, fmtI, "xx--", 0x00002013, maskF3},
	OpSLTIU: {"sltiu", ClassALU, fmtI, "xx--", 0x00003013, maskF3},
	OpXORI:  {"xori", ClassALU, fmtI, "xx--", 0x00004013, maskF3},
	OpORI:   {"ori", ClassALU, fmtI, "xx--", 0x00006013, maskF3},
	OpANDI:  {"andi", ClassALU, fmtI, "xx--", 0x00007013, maskF3},
	OpSLLI:  {"slli", ClassALU, fmtShift, "xx--", 0x00001013, maskF3},
	OpSRLI:  {"srli", ClassALU, fmtShift, "xx--", 0x00005013, maskF3},
	OpSRAI:  {"srai", ClassALU, fmtShift, "xx--", 0x40005013, maskF3F7},

	OpLUI:   {"lui", ClassALU, fmtU, "x---", 0x00000037, maskOpcode},
	OpAUIPC: {"auipc", ClassALU, fmtU, "x---", 0x00000017, maskOpcode},

	OpMUL:    {"mul", ClassMul, fmtR, "xxx-", 0x02000033, maskF3F7},
	OpMULH:   {"mulh", ClassMul, fmtR, "xxx-", 0x02001033, maskF3F7},
	OpMULHSU: {"mulhsu", ClassMul, fmtR, "xxx-", 0x02002033, maskF3F7},
	OpMULHU:  {"mulhu", ClassMul, fmtR, "xxx-", 0x02003033, maskF3F7},
	OpDIV:    {"div", ClassDiv, fmtR, "xxx-", 0x02004033, maskF3F7},
	OpDIVU:   {"divu", ClassDiv, fmtR, "xxx-", 0x02005033, maskF3F7},
	OpREM:    {"rem", ClassDiv, fmtR, "xxx-", 0x02006033, maskF3F7},
	OpREMU:   {"remu", ClassDiv, fmtR, "xxx-", 0x02007033, maskF3F7},

	OpLB:  {"lb", ClassLoad, fmtLoad, "xx--", 0x00000003, maskF3},
	OpLH:  {"lh", ClassLoad, fmtLoad, "xx--", 0x00001003, maskF3},
	OpLW:  {"lw", ClassLoad, fmtLoad, "xx--", 0x00002003, maskF3},
	OpLBU: {"lbu", ClassLoad, fmtLoad, "xx--", 0x00004003, maskF3},
	OpLHU: {"lhu", ClassLoad, fmtLoad, "xx--", 0x00005003, maskF3},

	OpSB: {"sb", ClassStore, fmtStore, "-xx-", 0x00000023, maskF3},
	OpSH: {"sh", ClassStore, fmtStore, "-xx-", 0x00001023, maskF3},
	OpSW: {"sw", ClassStore, fmtStore, "-xx-", 0x00002023, maskF3},

	OpBEQ:  {"beq", ClassBranch, fmtB, "-xx-", 0x00000063, maskF3},
	OpBNE:  {"bne", ClassBranch, fmtB, "-xx-", 0x00001063, maskF3},
	OpBLT:  {"blt", ClassBranch, fmtB, "-xx-", 0x00004063, maskF3},
	OpBGE:  {"bge", ClassBranch, fmtB, "-xx-", 0x00005063, maskF3},
	OpBLTU: {"bltu", ClassBranch, fmtB, "-xx-", 0x00006063, maskF3},
	OpBGEU: {"bgeu", ClassBranch, fmtB, "-xx-", 0x00007063, maskF3},

	OpJAL:  {"jal", ClassJump, fmtJ, "x---", 0x0000006F, maskOpcode},
	OpJALR: {"jalr", ClassJump, fmtLoad, "xx--", 0x00000067, maskF3},

	OpFLW: {"flw", ClassLoad, fmtLoad, "fx--", 0x00002007, maskF3},
	OpFSW: {"fsw", ClassStore, fmtStore, "-xf-", 0x00002027, maskF3},

	OpFADDS:   {"fadd.s", ClassFPAdd, fmtR, "fff-", 0x00000053, maskF7},
	OpFSUBS:   {"fsub.s", ClassFPAdd, fmtR, "fff-", 0x08000053, maskF7},
	OpFMULS:   {"fmul.s", ClassFPMul, fmtR, "fff-", 0x10000053, maskF7},
	OpFDIVS:   {"fdiv.s", ClassFPDiv, fmtR, "fff-", 0x18000053, maskF7},
	OpFSQRTS:  {"fsqrt.s", ClassFPDiv, fmtR1, "ff--", 0x58000053, maskF7},
	OpFMINS:   {"fmin.s", ClassFPAdd, fmtR, "fff-", 0x28000053, maskF3F7},
	OpFMAXS:   {"fmax.s", ClassFPAdd, fmtR, "fff-", 0x28001053, maskF3F7},
	OpFMADDS:  {"fmadd.s", ClassFPMul, fmtR4, "ffff", 0x00000043, maskFMA},
	OpFMSUBS:  {"fmsub.s", ClassFPMul, fmtR4, "ffff", 0x00000047, maskFMA},
	OpFNMADDS: {"fnmadd.s", ClassFPMul, fmtR4, "ffff", 0x0000004F, maskFMA},
	OpFNMSUBS: {"fnmsub.s", ClassFPMul, fmtR4, "ffff", 0x0000004B, maskFMA},

	OpFCVTWS:  {"fcvt.w.s", ClassFPAdd, fmtR1, "xf--", 0xC0000053, maskF7},
	OpFCVTWUS: {"fcvt.wu.s", ClassFPAdd, fmtR1, "xf--", 0xC0100053, maskF7Rs2},
	OpFCVTSW:  {"fcvt.s.w", ClassFPAdd, fmtR1, "fx--", 0xD0000053, maskF7},
	OpFCVTSWU: {"fcvt.s.wu", ClassFPAdd, fmtR1, "fx--", 0xD0100053, maskF7Rs2},
	OpFMVXW:   {"fmv.x.w", ClassFPAdd, fmtR1, "xf--", 0xE0000053, maskF7},
	OpFMVWX:   {"fmv.w.x", ClassFPAdd, fmtR1, "fx--", 0xF0000053, maskF7},
	OpFEQS:    {"feq.s", ClassFPAdd, fmtR, "xff-", 0xA0002053, maskF3F7},
	OpFLTS:    {"flt.s", ClassFPAdd, fmtR, "xff-", 0xA0001053, maskF3F7},
	OpFLES:    {"fle.s", ClassFPAdd, fmtR, "xff-", 0xA0000053, maskF3F7},
	OpFSGNJS:  {"fsgnj.s", ClassFPAdd, fmtR, "fff-", 0x20000053, maskF3F7},
	OpFSGNJNS: {"fsgnjn.s", ClassFPAdd, fmtR, "fff-", 0x20001053, maskF3F7},
	OpFSGNJXS: {"fsgnjx.s", ClassFPAdd, fmtR, "fff-", 0x20002053, maskF3F7},
	OpFCLASSS: {"fclass.s", ClassFPAdd, fmtR1, "xf--", 0xE0001053, maskF3F7},

	OpECALL:  {"ecall", ClassSystem, fmtNone, "----", 0x00000073, maskF3},
	OpEBREAK: {"ebreak", ClassSystem, fmtNone, "----", 0x00100073, maskSystem},
	OpFENCE:  {"fence", ClassSystem, fmtNone, "----", 0x0000000F, maskOpcode},
	OpCSRRW:  {"csrrw", ClassSystem, fmtCSR, "xx--", 0x00001073, maskF3},
	OpCSRRS:  {"csrrs", ClassSystem, fmtCSR, "xx--", 0x00002073, maskF3},
	OpCSRRC:  {"csrrc", ClassSystem, fmtCSR, "xx--", 0x00003073, maskF3},

	OpNOP: {"nop", ClassALU, fmtNone, "----", 0x00000013, 0}, // addi x0, x0, 0
}

// info returns o's table row; an op outside the table gets OpInvalid's.
func (o Op) info() *opInfo {
	if o < numOps {
		return &opTable[o]
	}
	return &opTable[OpInvalid]
}

func (o Op) String() string {
	if o < numOps {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class reports the functional-unit class of o.
func (o Op) Class() Class { return o.info().class }

// IsFP reports whether o reads or writes the floating-point register file.
func (o Op) IsFP() bool {
	regs := o.info().regs
	return regs[0] == 'f' || regs[1] == 'f' || regs[2] == 'f' || regs[3] == 'f'
}

// HasImm reports whether o carries an immediate operand.
func (o Op) HasImm() bool {
	switch o.info().format {
	case fmtNone, fmtR, fmtR1, fmtR4:
		return false
	}
	return true
}

// Operands lists o's operands in assembly order. The slice is shared and
// must not be modified.
func (o Op) Operands() []Operand { return formatOperands[o.info().format] }
