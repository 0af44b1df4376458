package asm

import (
	"math/rand"
	"strings"
	"testing"

	"mesa/internal/isa"
)

// TestDisassemblyReassembles: the String() rendering of every op, with
// random operands, is valid assembler input that parses back to an
// instruction with the identical binary encoding — the printer and the
// parser read the same operand list (isa.Op.Operands).
func TestDisassemblyReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var insts []isa.Inst
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		for range 8 {
			insts = append(insts, randomInst(t, rng, op))
		}
	}

	var src strings.Builder
	for _, in := range insts {
		src.WriteString(in.String())
		src.WriteByte('\n')
	}
	prog, err := Assemble(0x1000, src.String())
	if err != nil {
		t.Fatalf("reassemble failed: %v\nsource:\n%s", err, src.String())
	}
	if len(prog.Insts) != len(insts) {
		t.Fatalf("reassembled %d instructions, want %d", len(prog.Insts), len(insts))
	}
	for i, want := range insts {
		got := prog.Insts[i]
		w1, err1 := isa.Encode(want)
		w2, err2 := isa.Encode(got)
		if err1 != nil || err2 != nil || w1 != w2 {
			t.Errorf("inst %d: %q reassembled to %q (%#x vs %#x)", i, want, got, w1, w2)
		}
	}
}

// randomInst returns op with random operands: immediates inside their
// field, and registers from the one choice of files Encode accepts.
func randomInst(t *testing.T, rng *rand.Rand, op isa.Op) isa.Inst {
	none := isa.RegNone
	in := isa.Inst{Op: op, Rd: none, Rs1: none, Rs2: none, Rs3: none}
	var regs []*isa.Reg
	for _, o := range op.Operands() {
		switch o {
		case isa.OperandRd:
			regs = append(regs, &in.Rd)
		case isa.OperandRs1, isa.OperandMem:
			regs = append(regs, &in.Rs1)
		case isa.OperandRs2:
			regs = append(regs, &in.Rs2)
		case isa.OperandRs3:
			regs = append(regs, &in.Rs3)
		}
		switch o {
		case isa.OperandImm, isa.OperandMem:
			in.Imm = int32(rng.Intn(4096) - 2048)
		case isa.OperandUpper:
			in.Imm = int32(rng.Intn(1<<20)) << 12
		case isa.OperandTarget:
			in.Imm = int32(rng.Intn(4096)-2048) * 2
		}
	}
	nums := make([]int, len(regs))
	for i := range nums {
		nums[i] = rng.Intn(32)
	}
	for files := 0; files < 1<<len(regs); files++ {
		for i, r := range regs {
			if files>>i&1 == 1 {
				*r = isa.FPReg(nums[i])
			} else {
				*r = isa.IntReg(nums[i])
			}
		}
		if _, err := isa.Encode(in); err == nil {
			return in
		}
	}
	t.Fatalf("%v: no choice of register files encodes", op)
	return in
}

// FuzzDisassemblyReassembles: every decodable word prints as assembler
// input that assembles to the word's canonical encoding,
// Encode(Decode(word)).
//
// Run open-ended with:
//
//	go test ./internal/asm -run '^$' -fuzz '^FuzzDisassemblyReassembles$'
func FuzzDisassemblyReassembles(f *testing.F) {
	for _, w := range []uint32{
		0x00000013, // addi x0, x0, 0
		0x00100073, // ebreak
		0x30200073, // mret, which decodes as ecall
		0x0FF0000F, // fence iorw, iorw
		0x800000EF, // jal x1, -1048576
		0xFE000EE3, // beq x0, x0, -4
		0x30029373, // csrrw x6, x5, 768 (mstatus)
		0xFFFFF2B7, // lui x5, 0xfffff
		0x1820F043, // fmadd.s f0, f1, f2, f3 (dynamic rounding)
		0xC0108553, // fcvt.wu.s x10, f1
		0xE0008553, // fmv.x.w x10, f1
		0xFFFFFFFF, // undecodable
	} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, word uint32) {
		in, err := isa.Decode(word)
		if err != nil {
			return
		}
		want, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("Decode(%#08x) = %v does not encode: %v", word, in, err)
		}
		prog, err := Assemble(0, in.String())
		if err != nil {
			t.Fatalf("Decode(%#08x) prints %q, which does not assemble: %v", word, in, err)
		}
		if len(prog.Insts) != 1 {
			t.Fatalf("%q assembled to %d instructions", in, len(prog.Insts))
		}
		got, err := isa.Encode(prog.Insts[0])
		if err != nil || got != want {
			t.Fatalf("%q (from %#08x) reassembles to %#08x, %v; want %#08x", in, word, got, err, want)
		}
	})
}
