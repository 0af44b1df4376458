package isa

import "fmt"

// fieldShift is the bit position of the rd, rs1, rs2 and rs3 fields.
var fieldShift = [4]uint{7, 15, 20, 27}

// Encode converts an instruction to its 32-bit RISC-V machine encoding: the
// op's fixed bits, its register fields and its immediate. Every register
// operand must be in the file the op reads or writes (add takes x
// registers, fadd.s f registers); unused operand slots are ignored.
func Encode(in Inst) (uint32, error) {
	if in.Op == OpInvalid || in.Op >= numOps {
		return 0, fmt.Errorf("isa: cannot encode %v", in)
	}
	r := &opTable[in.Op]
	word := r.match
	for i, reg := range [4]Reg{in.Rd, in.Rs1, in.Rs2, in.Rs3} {
		switch r.regs[i] {
		case '-':
			continue
		case 'x':
			if !reg.IsInt() {
				return 0, fmt.Errorf("isa: %s needs an x register, not %v, in %v", slotNames[i], reg, in)
			}
		case 'f':
			if !reg.IsFP() {
				return 0, fmt.Errorf("isa: %s needs an f register, not %v, in %v", slotNames[i], reg, in)
			}
		}
		word |= uint32(reg.Num()) << fieldShift[i]
	}
	imm, err := encodeImm(r.format, in)
	if err != nil {
		return 0, err
	}
	return word | imm, nil
}

var slotNames = [4]string{"rd", "rs1", "rs2", "rs3"}

// encodeImm returns the immediate bits of in's format, after its range
// check. Shift amounts, CSR numbers and upper immediates keep only the bits
// their field holds.
func encodeImm(f format, in Inst) (uint32, error) {
	imm := uint32(in.Imm)
	switch f {
	case fmtI, fmtLoad:
		return (imm & 0xFFF) << 20, checkRange(in.Imm, 12, 1, in)
	case fmtShift:
		return (imm & 31) << 20, nil
	case fmtCSR:
		return (imm & 0xFFF) << 20, nil
	case fmtStore:
		return (imm>>5&0x7F)<<25 | (imm&0x1F)<<7, checkRange(in.Imm, 12, 1, in)
	case fmtB:
		return (imm>>12&1)<<31 | (imm>>5&0x3F)<<25 | (imm>>1&0xF)<<8 | (imm>>11&1)<<7,
			checkRange(in.Imm, 13, 2, in)
	case fmtU:
		return imm & 0xFFFFF000, nil
	case fmtJ:
		return (imm>>20&1)<<31 | (imm>>1&0x3FF)<<21 | (imm>>11&1)<<20 | (imm>>12&0xFF)<<12,
			checkRange(in.Imm, 21, 2, in)
	}
	return 0, nil
}

// MustEncode is Encode but panics on error; for use in tests and builders
// with known-valid instructions.
func MustEncode(in Inst) uint32 {
	w, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}

func checkRange(imm int32, bits, align uint, in Inst) error {
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
