package isa

import (
	"fmt"
	"math/bits"
	"slices"
)

// decodeOrder lists, per major opcode, the ops Decode tries in turn: the
// most specific mask first, ties in Op order. A row that fixes a field
// another row of its opcode leaves free is thereby tried first, and the
// looser row takes every other value of the field: srli any funct7 but
// srai's, fcvt.w.s and fcvt.s.w any rs2 but their unsigned forms', fmv.x.w
// any funct3 but fclass.s's, ecall any immediate but ebreak's.
var decodeOrder = func() (order [128][]Op) {
	for op := OpInvalid + 1; op < numOps; op++ {
		if r := &opTable[op]; r.mask != 0 {
			order[r.match&0x7F] = append(order[r.match&0x7F], op)
		}
	}
	for _, ops := range order {
		slices.SortStableFunc(ops, func(a, b Op) int {
			return bits.OnesCount32(opTable[b].mask) - bits.OnesCount32(opTable[a].mask)
		})
	}
	return order
}()

// Decode converts a 32-bit RISC-V machine word into an Inst: the first op
// of the word's major opcode whose mask and match select it. It supports
// the RV32IMF subset defined by this package and returns an error for
// anything else.
func Decode(word uint32) (Inst, error) {
	ops := decodeOrder[word&0x7F]
	for _, op := range ops {
		r := &opTable[op]
		if word&r.mask != r.match {
			continue
		}
		var regs [4]Reg
		for i := range regs {
			switch r.regs[i] {
			case 'x':
				regs[i] = Reg(word >> fieldShift[i] & 31)
			case 'f':
				regs[i] = Reg(word>>fieldShift[i]&31) + 32
			default:
				regs[i] = RegNone
			}
		}
		return Inst{Op: op, Rd: regs[0], Rs1: regs[1], Rs2: regs[2], Rs3: regs[3],
			Imm: decodeImm(r.format, word)}, nil
	}
	if len(ops) == 0 {
		return Inst{}, fmt.Errorf("isa: unknown opcode %#x", word&0x7F)
	}
	return Inst{}, fmt.Errorf("isa: no RV32IMF instruction of opcode %#x encodes as %#08x", word&0x7F, word)
}

// decodeImm is encodeImm's inverse: the sign-extended immediate of format
// f (zero-extended for shift amounts and CSR numbers).
func decodeImm(f format, word uint32) int32 {
	switch f {
	case fmtI, fmtLoad:
		return int32(word) >> 20
	case fmtShift:
		return int32(word >> 20 & 31)
	case fmtCSR:
		return int32(word >> 20)
	case fmtStore:
		return int32(word)>>25<<5 | int32(word>>7&31)
	case fmtB:
		return int32(word)>>31<<12 | int32(word>>7&1)<<11 |
			int32(word>>25&0x3F)<<5 | int32(word>>8&0xF)<<1
	case fmtU:
		return int32(word & 0xFFFFF000)
	case fmtJ:
		return int32(word)>>31<<20 | int32(word>>12&0xFF)<<12 |
			int32(word>>20&1)<<11 | int32(word>>21&0x3FF)<<1
	}
	return 0
}
