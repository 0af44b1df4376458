package isa

import "fmt"

// This file is the reference for the op table in table.go: the encoder,
// the decoder and the per-op predicates exactly as they were written before
// every op's facts moved into one table (per-format maps for Encode, switches
// for Decode, op lists for HasImm, Sources and String). Identifiers carry a
// ref prefix; Op methods became functions of the op. reference_test.go
// compares the table-driven code against them.

// RISC-V major opcodes.
const (
	refOpcLOAD    = 0x03
	refOpcLOADFP  = 0x07
	refOpcMISCMEM = 0x0F
	refOpcOPIMM   = 0x13
	refOpcAUIPC   = 0x17
	refOpcSTORE   = 0x23
	refOpcSTOREFP = 0x27
	refOpcOP      = 0x33
	refOpcLUI     = 0x37
	refOpcMADD    = 0x43
	refOpcMSUB    = 0x47
	refOpcNMSUB   = 0x4B
	refOpcNMADD   = 0x4F
	refOpcOPFP    = 0x53
	refOpcBRANCH  = 0x63
	refOpcJALR    = 0x67
	refOpcJAL     = 0x6F
	refOpcSYSTEM  = 0x73
)

type refRSpec struct {
	opcode uint32
	funct3 uint32
	funct7 uint32
}

var refREnc = map[Op]refRSpec{
	OpADD:    {refOpcOP, 0, 0x00},
	OpSUB:    {refOpcOP, 0, 0x20},
	OpSLL:    {refOpcOP, 1, 0x00},
	OpSLT:    {refOpcOP, 2, 0x00},
	OpSLTU:   {refOpcOP, 3, 0x00},
	OpXOR:    {refOpcOP, 4, 0x00},
	OpSRL:    {refOpcOP, 5, 0x00},
	OpSRA:    {refOpcOP, 5, 0x20},
	OpOR:     {refOpcOP, 6, 0x00},
	OpAND:    {refOpcOP, 7, 0x00},
	OpMUL:    {refOpcOP, 0, 0x01},
	OpMULH:   {refOpcOP, 1, 0x01},
	OpMULHSU: {refOpcOP, 2, 0x01},
	OpMULHU:  {refOpcOP, 3, 0x01},
	OpDIV:    {refOpcOP, 4, 0x01},
	OpDIVU:   {refOpcOP, 5, 0x01},
	OpREM:    {refOpcOP, 6, 0x01},
	OpREMU:   {refOpcOP, 7, 0x01},
}

var refIEnc = map[Op]refRSpec{
	OpADDI:  {refOpcOPIMM, 0, 0},
	OpSLTI:  {refOpcOPIMM, 2, 0},
	OpSLTIU: {refOpcOPIMM, 3, 0},
	OpXORI:  {refOpcOPIMM, 4, 0},
	OpORI:   {refOpcOPIMM, 6, 0},
	OpANDI:  {refOpcOPIMM, 7, 0},
	OpJALR:  {refOpcJALR, 0, 0},
	OpLB:    {refOpcLOAD, 0, 0},
	OpLH:    {refOpcLOAD, 1, 0},
	OpLW:    {refOpcLOAD, 2, 0},
	OpLBU:   {refOpcLOAD, 4, 0},
	OpLHU:   {refOpcLOAD, 5, 0},
	OpFLW:   {refOpcLOADFP, 2, 0},
}

var refSEnc = map[Op]refRSpec{
	OpSB:  {refOpcSTORE, 0, 0},
	OpSH:  {refOpcSTORE, 1, 0},
	OpSW:  {refOpcSTORE, 2, 0},
	OpFSW: {refOpcSTOREFP, 2, 0},
}

var refBEnc = map[Op]uint32{
	OpBEQ: 0, OpBNE: 1, OpBLT: 4, OpBGE: 5, OpBLTU: 6, OpBGEU: 7,
}

// refFPEnc covers OP-FP instructions: funct7 plus a fixed funct3 where the
// encoding requires one (negative means "rounding mode", encoded as 0 RNE).
type refFPSpec struct {
	funct7 uint32
	funct3 int32 // -1: rounding-mode field
	rs2    int32 // -1: real rs2; otherwise fixed rs2 field value
}

var refFPEnc = map[Op]refFPSpec{
	OpFADDS:   {0x00, -1, -1},
	OpFSUBS:   {0x04, -1, -1},
	OpFMULS:   {0x08, -1, -1},
	OpFDIVS:   {0x0C, -1, -1},
	OpFSQRTS:  {0x2C, -1, 0},
	OpFSGNJS:  {0x10, 0, -1},
	OpFSGNJNS: {0x10, 1, -1},
	OpFSGNJXS: {0x10, 2, -1},
	OpFMINS:   {0x14, 0, -1},
	OpFMAXS:   {0x14, 1, -1},
	OpFCVTWS:  {0x60, -1, 0},
	OpFCVTWUS: {0x60, -1, 1},
	OpFCVTSW:  {0x68, -1, 0},
	OpFCVTSWU: {0x68, -1, 1},
	OpFMVXW:   {0x70, 0, 0},
	OpFCLASSS: {0x70, 1, 0},
	OpFEQS:    {0x50, 2, -1},
	OpFLTS:    {0x50, 1, -1},
	OpFLES:    {0x50, 0, -1},
	OpFMVWX:   {0x78, 0, 0},
}

var refFMAEnc = map[Op]uint32{
	OpFMADDS: refOpcMADD, OpFMSUBS: refOpcMSUB, OpFNMSUBS: refOpcNMSUB, OpFNMADDS: refOpcNMADD,
}

var csrefREnc = map[Op]uint32{OpCSRRW: 1, OpCSRRS: 2, OpCSRRC: 3}

// Encode converts an instruction to its 32-bit RISC-V machine encoding.
func refEncode(in Inst) (uint32, error) {
	rd := uint32(in.Rd.Num())
	rs1 := uint32(in.Rs1.Num())
	rs2 := uint32(in.Rs2.Num())
	if in.Rd == RegNone {
		rd = 0
	}
	if in.Rs1 == RegNone {
		rs1 = 0
	}
	if in.Rs2 == RegNone {
		rs2 = 0
	}
	imm := uint32(in.Imm)

	switch {
	case in.Op == OpNOP:
		return refEncodeI(0, 0, 0, refOpcOPIMM), nil // addi x0, x0, 0
	case in.Op == OpECALL:
		return 0x00000073, nil
	case in.Op == OpEBREAK:
		return 0x00100073, nil
	case in.Op == OpFENCE:
		return 0x0000000F, nil
	case in.Op == OpLUI:
		return (imm & 0xFFFFF000) | rd<<7 | refOpcLUI, nil
	case in.Op == OpAUIPC:
		return (imm & 0xFFFFF000) | rd<<7 | refOpcAUIPC, nil
	case in.Op == OpJAL:
		if err := refCheckRange(in.Imm, 21, 2, in); err != nil {
			return 0, err
		}
		return refEncodeJ(imm, rd), nil
	case in.Op == OpSLLI || in.Op == OpSRLI || in.Op == OpSRAI:
		shamt := imm & 31
		f7 := uint32(0)
		var f3 uint32
		switch in.Op {
		case OpSLLI:
			f3 = 1
		case OpSRLI:
			f3 = 5
		case OpSRAI:
			f3, f7 = 5, 0x20
		}
		return f7<<25 | shamt<<20 | rs1<<15 | f3<<12 | rd<<7 | refOpcOPIMM, nil
	}

	if spec, ok := refREnc[in.Op]; ok {
		return spec.funct7<<25 | rs2<<20 | rs1<<15 | spec.funct3<<12 | rd<<7 | spec.opcode, nil
	}
	if spec, ok := refIEnc[in.Op]; ok {
		if err := refCheckRange(in.Imm, 12, 1, in); err != nil {
			return 0, err
		}
		return (imm&0xFFF)<<20 | rs1<<15 | spec.funct3<<12 | rd<<7 | spec.opcode, nil
	}
	if spec, ok := refSEnc[in.Op]; ok {
		if err := refCheckRange(in.Imm, 12, 1, in); err != nil {
			return 0, err
		}
		return (imm>>5&0x7F)<<25 | rs2<<20 | rs1<<15 | spec.funct3<<12 |
			(imm&0x1F)<<7 | spec.opcode, nil
	}
	if f3, ok := refBEnc[in.Op]; ok {
		if err := refCheckRange(in.Imm, 13, 2, in); err != nil {
			return 0, err
		}
		return refEncodeB(imm, rs2, rs1, f3), nil
	}
	if spec, ok := refFPEnc[in.Op]; ok {
		f3 := uint32(0)
		if spec.funct3 >= 0 {
			f3 = uint32(spec.funct3)
		}
		r2 := rs2
		if spec.rs2 >= 0 {
			r2 = uint32(spec.rs2)
		}
		return spec.funct7<<25 | r2<<20 | rs1<<15 | f3<<12 | rd<<7 | refOpcOPFP, nil
	}
	if opc, ok := refFMAEnc[in.Op]; ok {
		rs3 := uint32(in.Rs3.Num())
		return rs3<<27 | 0<<25 | rs2<<20 | rs1<<15 | 0<<12 | rd<<7 | opc, nil
	}
	if f3, ok := csrefREnc[in.Op]; ok {
		return (imm&0xFFF)<<20 | rs1<<15 | f3<<12 | rd<<7 | refOpcSYSTEM, nil
	}
	return 0, fmt.Errorf("isa: cannot encode %v", in)
}

func refEncodeI(imm, rs1, rd, opc uint32) uint32 {
	return (imm&0xFFF)<<20 | rs1<<15 | rd<<7 | opc
}

func refEncodeB(imm, rs2, rs1, f3 uint32) uint32 {
	return (imm>>12&1)<<31 | (imm>>5&0x3F)<<25 | rs2<<20 | rs1<<15 |
		f3<<12 | (imm>>1&0xF)<<8 | (imm>>11&1)<<7 | refOpcBRANCH
}

func refEncodeJ(imm, rd uint32) uint32 {
	return (imm>>20&1)<<31 | (imm>>1&0x3FF)<<21 | (imm>>11&1)<<20 |
		(imm>>12&0xFF)<<12 | rd<<7 | refOpcJAL
}

func refCheckRange(imm int32, bits, align uint, in Inst) error {
	min := -(int32(1) << (bits - 1))
	max := int32(1)<<(bits-1) - 1
	if imm < min || imm > max {
		return fmt.Errorf("isa: immediate %d out of %d-bit range in %v", imm, bits, in)
	}
	if align > 1 && imm%int32(align) != 0 {
		return fmt.Errorf("isa: immediate %d not %d-byte aligned in %v", imm, align, in)
	}
	return nil
}

// Decode converts a 32-bit RISC-V machine word into an Inst. It supports the
// RV32IMF subset defined by this package and returns an error for anything
// else.
func refDecode(word uint32) (Inst, error) {
	opc := word & 0x7F
	rd := Reg(word >> 7 & 31)
	f3 := word >> 12 & 7
	rs1 := Reg(word >> 15 & 31)
	rs2 := Reg(word >> 20 & 31)
	f7 := word >> 25 & 0x7F

	immI := int32(word) >> 20
	immS := int32(word)>>25<<5 | int32(word>>7&31)
	immB := int32(word)>>31<<12 | int32(word>>7&1)<<11 |
		int32(word>>25&0x3F)<<5 | int32(word>>8&0xF)<<1
	immU := int32(word & 0xFFFFF000)
	immJ := int32(word)>>31<<20 | int32(word>>12&0xFF)<<12 |
		int32(word>>20&1)<<11 | int32(word>>21&0x3FF)<<1

	none := RegNone
	switch opc {
	case refOpcLUI:
		return Inst{Op: OpLUI, Rd: rd, Rs1: none, Rs2: none, Rs3: none, Imm: immU}, nil
	case refOpcAUIPC:
		return Inst{Op: OpAUIPC, Rd: rd, Rs1: none, Rs2: none, Rs3: none, Imm: immU}, nil
	case refOpcJAL:
		return Inst{Op: OpJAL, Rd: rd, Rs1: none, Rs2: none, Rs3: none, Imm: immJ}, nil
	case refOpcJALR:
		if f3 != 0 {
			return Inst{}, fmt.Errorf("isa: bad jalr funct3 %d", f3)
		}
		return Inst{Op: OpJALR, Rd: rd, Rs1: rs1, Rs2: none, Rs3: none, Imm: immI}, nil

	case refOpcBRANCH:
		for op, bf3 := range refBEnc {
			if bf3 == f3 {
				return Inst{Op: op, Rd: none, Rs1: rs1, Rs2: rs2, Rs3: none, Imm: immB}, nil
			}
		}
		return Inst{}, fmt.Errorf("isa: bad branch funct3 %d", f3)

	case refOpcLOAD:
		var op Op
		switch f3 {
		case 0:
			op = OpLB
		case 1:
			op = OpLH
		case 2:
			op = OpLW
		case 4:
			op = OpLBU
		case 5:
			op = OpLHU
		default:
			return Inst{}, fmt.Errorf("isa: bad load funct3 %d", f3)
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: none, Rs3: none, Imm: immI}, nil

	case refOpcLOADFP:
		if f3 != 2 {
			return Inst{}, fmt.Errorf("isa: bad fp-load funct3 %d", f3)
		}
		return Inst{Op: OpFLW, Rd: rd + 32, Rs1: rs1, Rs2: none, Rs3: none, Imm: immI}, nil

	case refOpcSTORE:
		var op Op
		switch f3 {
		case 0:
			op = OpSB
		case 1:
			op = OpSH
		case 2:
			op = OpSW
		default:
			return Inst{}, fmt.Errorf("isa: bad store funct3 %d", f3)
		}
		return Inst{Op: op, Rd: none, Rs1: rs1, Rs2: rs2, Rs3: none, Imm: immS}, nil

	case refOpcSTOREFP:
		if f3 != 2 {
			return Inst{}, fmt.Errorf("isa: bad fp-store funct3 %d", f3)
		}
		return Inst{Op: OpFSW, Rd: none, Rs1: rs1, Rs2: rs2 + 32, Rs3: none, Imm: immS}, nil

	case refOpcOPIMM:
		var op Op
		imm := immI
		switch f3 {
		case 0:
			op = OpADDI
		case 1:
			op, imm = OpSLLI, int32(word>>20&31)
		case 2:
			op = OpSLTI
		case 3:
			op = OpSLTIU
		case 4:
			op = OpXORI
		case 5:
			if f7 == 0x20 {
				op = OpSRAI
			} else {
				op = OpSRLI
			}
			imm = int32(word >> 20 & 31)
		case 6:
			op = OpORI
		case 7:
			op = OpANDI
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: none, Rs3: none, Imm: imm}, nil

	case refOpcOP:
		for op, spec := range refREnc {
			if spec.funct3 == f3 && spec.funct7 == f7 {
				return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: none}, nil
			}
		}
		return Inst{}, fmt.Errorf("isa: bad OP funct3=%d funct7=%#x", f3, f7)

	case refOpcOPFP:
		return refDecodeFP(word, rd, f3, rs1, rs2, f7)

	case refOpcMADD, refOpcMSUB, refOpcNMSUB, refOpcNMADD:
		var op Op
		switch opc {
		case refOpcMADD:
			op = OpFMADDS
		case refOpcMSUB:
			op = OpFMSUBS
		case refOpcNMSUB:
			op = OpFNMSUBS
		case refOpcNMADD:
			op = OpFNMADDS
		}
		if word>>25&3 != 0 {
			return Inst{}, fmt.Errorf("isa: only single-precision FMA supported")
		}
		rs3 := Reg(word >> 27 & 31)
		return Inst{Op: op, Rd: rd + 32, Rs1: rs1 + 32, Rs2: rs2 + 32, Rs3: rs3 + 32}, nil

	case refOpcMISCMEM:
		return Inst{Op: OpFENCE, Rd: none, Rs1: none, Rs2: none, Rs3: none}, nil

	case refOpcSYSTEM:
		switch f3 {
		case 0:
			if word>>20&0xFFF == 1 {
				return Inst{Op: OpEBREAK, Rd: none, Rs1: none, Rs2: none, Rs3: none}, nil
			}
			return Inst{Op: OpECALL, Rd: none, Rs1: none, Rs2: none, Rs3: none}, nil
		case 1:
			return Inst{Op: OpCSRRW, Rd: rd, Rs1: rs1, Rs2: none, Rs3: none, Imm: int32(word >> 20)}, nil
		case 2:
			return Inst{Op: OpCSRRS, Rd: rd, Rs1: rs1, Rs2: none, Rs3: none, Imm: int32(word >> 20)}, nil
		case 3:
			return Inst{Op: OpCSRRC, Rd: rd, Rs1: rs1, Rs2: none, Rs3: none, Imm: int32(word >> 20)}, nil
		}
		return Inst{}, fmt.Errorf("isa: bad system funct3 %d", f3)
	}
	return Inst{}, fmt.Errorf("isa: unknown opcode %#x", opc)
}

func refDecodeFP(word uint32, rd Reg, f3 uint32, rs1, rs2 Reg, f7 uint32) (Inst, error) {
	none := RegNone
	frd, frs1, frs2 := rd+32, rs1+32, rs2+32
	switch f7 {
	case 0x00:
		return Inst{Op: OpFADDS, Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: none}, nil
	case 0x04:
		return Inst{Op: OpFSUBS, Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: none}, nil
	case 0x08:
		return Inst{Op: OpFMULS, Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: none}, nil
	case 0x0C:
		return Inst{Op: OpFDIVS, Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: none}, nil
	case 0x2C:
		return Inst{Op: OpFSQRTS, Rd: frd, Rs1: frs1, Rs2: none, Rs3: none}, nil
	case 0x10:
		ops := [3]Op{OpFSGNJS, OpFSGNJNS, OpFSGNJXS}
		if f3 > 2 {
			return Inst{}, fmt.Errorf("isa: bad fsgnj funct3 %d", f3)
		}
		return Inst{Op: ops[f3], Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: none}, nil
	case 0x14:
		if f3 > 1 {
			return Inst{}, fmt.Errorf("isa: bad fmin/fmax funct3 %d", f3)
		}
		op := OpFMINS
		if f3 == 1 {
			op = OpFMAXS
		}
		return Inst{Op: op, Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: none}, nil
	case 0x60:
		op := OpFCVTWS
		if rs2.Num() == 1 {
			op = OpFCVTWUS
		}
		return Inst{Op: op, Rd: rd, Rs1: frs1, Rs2: none, Rs3: none}, nil
	case 0x68:
		op := OpFCVTSW
		if rs2.Num() == 1 {
			op = OpFCVTSWU
		}
		return Inst{Op: op, Rd: frd, Rs1: rs1, Rs2: none, Rs3: none}, nil
	case 0x70:
		if f3 == 1 {
			return Inst{Op: OpFCLASSS, Rd: rd, Rs1: frs1, Rs2: none, Rs3: none}, nil
		}
		return Inst{Op: OpFMVXW, Rd: rd, Rs1: frs1, Rs2: none, Rs3: none}, nil
	case 0x78:
		return Inst{Op: OpFMVWX, Rd: frd, Rs1: rs1, Rs2: none, Rs3: none}, nil
	case 0x50:
		var op Op
		switch f3 {
		case 2:
			op = OpFEQS
		case 1:
			op = OpFLTS
		case 0:
			op = OpFLES
		default:
			return Inst{}, fmt.Errorf("isa: bad fp-compare funct3 %d", f3)
		}
		return Inst{Op: op, Rd: rd, Rs1: frs1, Rs2: frs2, Rs3: none}, nil
	}
	return Inst{}, fmt.Errorf("isa: bad OP-FP funct7 %#x", f7)
}

var refOpNames = [...]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori",
	OpORI: "ori", OpANDI: "andi", OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpLUI: "lui", OpAUIPC: "auipc",
	OpMUL: "mul", OpMULH: "mulh", OpMULHSU: "mulhsu", OpMULHU: "mulhu",
	OpDIV: "div", OpDIVU: "divu", OpREM: "rem", OpREMU: "remu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLBU: "lbu", OpLHU: "lhu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLTU: "bltu", OpBGEU: "bgeu",
	OpJAL: "jal", OpJALR: "jalr",
	OpFLW: "flw", OpFSW: "fsw",
	OpFADDS: "fadd.s", OpFSUBS: "fsub.s", OpFMULS: "fmul.s", OpFDIVS: "fdiv.s",
	OpFSQRTS: "fsqrt.s", OpFMINS: "fmin.s", OpFMAXS: "fmax.s",
	OpFMADDS: "fmadd.s", OpFMSUBS: "fmsub.s",
	OpFNMADDS: "fnmadd.s", OpFNMSUBS: "fnmsub.s",
	OpFCVTWS: "fcvt.w.s", OpFCVTWUS: "fcvt.wu.s",
	OpFCVTSW: "fcvt.s.w", OpFCVTSWU: "fcvt.s.wu",
	OpFMVXW: "fmv.x.w", OpFMVWX: "fmv.w.x",
	OpFEQS: "feq.s", OpFLTS: "flt.s", OpFLES: "fle.s",
	OpFSGNJS: "fsgnj.s", OpFSGNJNS: "fsgnjn.s", OpFSGNJXS: "fsgnjx.s",
	OpFCLASSS: "fclass.s",
	OpECALL:   "ecall", OpEBREAK: "ebreak", OpFENCE: "fence",
	OpCSRRW: "csrrw", OpCSRRS: "csrrs", OpCSRRC: "csrrc",
	OpNOP: "nop",
}

func refOpString(o Op) string {
	if int(o) < len(refOpNames) && refOpNames[o] != "" {
		return refOpNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

var refOpClasses = [numOps]Class{
	OpADD: ClassALU, OpSUB: ClassALU, OpSLL: ClassALU, OpSLT: ClassALU,
	OpSLTU: ClassALU, OpXOR: ClassALU, OpSRL: ClassALU, OpSRA: ClassALU,
	OpOR: ClassALU, OpAND: ClassALU,
	OpADDI: ClassALU, OpSLTI: ClassALU, OpSLTIU: ClassALU, OpXORI: ClassALU,
	OpORI: ClassALU, OpANDI: ClassALU, OpSLLI: ClassALU, OpSRLI: ClassALU,
	OpSRAI: ClassALU, OpLUI: ClassALU, OpAUIPC: ClassALU, OpNOP: ClassALU,
	OpMUL: ClassMul, OpMULH: ClassMul, OpMULHSU: ClassMul, OpMULHU: ClassMul,
	OpDIV: ClassDiv, OpDIVU: ClassDiv, OpREM: ClassDiv, OpREMU: ClassDiv,
	OpLB: ClassLoad, OpLH: ClassLoad, OpLW: ClassLoad, OpLBU: ClassLoad,
	OpLHU: ClassLoad, OpFLW: ClassLoad,
	OpSB: ClassStore, OpSH: ClassStore, OpSW: ClassStore, OpFSW: ClassStore,
	OpBEQ: ClassBranch, OpBNE: ClassBranch, OpBLT: ClassBranch,
	OpBGE: ClassBranch, OpBLTU: ClassBranch, OpBGEU: ClassBranch,
	OpJAL: ClassJump, OpJALR: ClassJump,
	OpFADDS: ClassFPAdd, OpFSUBS: ClassFPAdd, OpFMINS: ClassFPAdd,
	OpFMAXS: ClassFPAdd, OpFSGNJS: ClassFPAdd, OpFSGNJNS: ClassFPAdd,
	OpFSGNJXS: ClassFPAdd, OpFEQS: ClassFPAdd, OpFLTS: ClassFPAdd,
	OpFLES: ClassFPAdd, OpFCVTWS: ClassFPAdd, OpFCVTWUS: ClassFPAdd,
	OpFCVTSW: ClassFPAdd, OpFCVTSWU: ClassFPAdd, OpFMVXW: ClassFPAdd,
	OpFMVWX: ClassFPAdd, OpFCLASSS: ClassFPAdd,
	OpFMULS: ClassFPMul, OpFMADDS: ClassFPMul, OpFMSUBS: ClassFPMul,
	OpFNMADDS: ClassFPMul, OpFNMSUBS: ClassFPMul,
	OpFDIVS: ClassFPDiv, OpFSQRTS: ClassFPDiv,
	OpECALL: ClassSystem, OpEBREAK: ClassSystem, OpFENCE: ClassSystem,
	OpCSRRW: ClassSystem, OpCSRRS: ClassSystem, OpCSRRC: ClassSystem,
}

func refClass(o Op) Class {
	if o < numOps {
		return refOpClasses[o]
	}
	return ClassInvalid
}

func refIsFP(o Op) bool {
	switch refClass(o) {
	case ClassFPAdd, ClassFPMul, ClassFPDiv:
		return true
	}
	return o == OpFLW || o == OpFSW
}

func refHasImm(o Op) bool {
	switch o {
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI,
		OpSRAI, OpLUI, OpAUIPC, OpLB, OpLH, OpLW, OpLBU, OpLHU, OpSB, OpSH,
		OpSW, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpJAL, OpJALR,
		OpFLW, OpFSW, OpCSRRW, OpCSRRS, OpCSRRC:
		return true
	}
	return false
}

func refDest(in Inst) (Reg, bool) {
	switch in.Op {
	case OpCSRRW, OpCSRRS, OpCSRRC:
		// The CSR ops write rd (the functional simulator writes zero).
	default:
		switch refClass(in.Op) {
		case ClassStore, ClassBranch, ClassSystem, ClassInvalid:
			return RegNone, false
		}
	}
	if in.Op == OpNOP || in.Rd == RegNone || in.Rd == X0 {
		return RegNone, false
	}
	return in.Rd, true
}

func refSources(in Inst) [3]Reg {
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
		if refUsesRs2(in.Op) {
			srcs[1] = norm(in.Rs2)
		}
	}
	return srcs
}

func refUsesRs2(op Op) bool {
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

func refString(in Inst) string {
	op := in.Op
	name := refOpString(op)
	switch {
	case op == OpNOP:
		return "nop"
	case op == OpECALL || op == OpEBREAK || op == OpFENCE:
		return name
	case op == OpLUI || op == OpAUIPC:
		return fmt.Sprintf("%s %s, 0x%x", name, in.Rd, uint32(in.Imm)>>12)
	case op == OpJAL:
		return fmt.Sprintf("%s %s, %d", name, in.Rd, in.Imm)
	case op == OpJALR:
		return fmt.Sprintf("%s %s, %d(%s)", name, in.Rd, in.Imm, in.Rs1)
	case refClass(op) == ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", name, in.Rd, in.Imm, in.Rs1)
	case refClass(op) == ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", name, in.Rs2, in.Imm, in.Rs1)
	case refClass(op) == ClassBranch:
		return fmt.Sprintf("%s %s, %s, %d", name, in.Rs1, in.Rs2, in.Imm)
	case op == OpFSQRTS || op == OpFCVTWS || op == OpFCVTWUS || op == OpFCVTSW ||
		op == OpFCVTSWU || op == OpFMVXW || op == OpFMVWX || op == OpFCLASSS:
		return fmt.Sprintf("%s %s, %s", name, in.Rd, in.Rs1)
	case op == OpFMADDS || op == OpFMSUBS || op == OpFNMADDS || op == OpFNMSUBS:
		return fmt.Sprintf("%s %s, %s, %s, %s", name, in.Rd, in.Rs1, in.Rs2, in.Rs3)
	case refHasImm(op):
		return fmt.Sprintf("%s %s, %s, %d", name, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", name, in.Rd, in.Rs1, in.Rs2)
	}
}
