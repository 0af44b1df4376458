package isa

import "testing"

// FuzzDecodeEncode checks the Decode↔Encode round trip over arbitrary
// machine words. Exact word-level identity cannot hold for every decodable
// word, because Decode ignores fields the simulator does not model (the
// fields outside each op's mask in the op table):
//
//   - the rounding mode (funct3) of the OP-FP arithmetic, square root,
//     conversion and fmv.w.x ops and of the fused multiply-adds;
//   - every field of a MISC-MEM word: any one decodes as fence (fence.i too);
//   - funct7 of slli, and of srli unless it is srai's 0x20;
//   - rs2 of fsqrt.s, fmv.x.w, fmv.w.x and fclass.s, and of fcvt.w.s and
//     fcvt.s.w unless it is 1, their unsigned forms;
//   - funct3 of fmv.x.w unless it is 1, fclass.s;
//   - the immediate, rd and rs1 of a SYSTEM funct3-0 word: an immediate of 1
//     is ebreak and any other is ecall, so mret (0x30200073) and wfi
//     (0x10500073) decode as ecall.
//
// So the property is canonicalization: one Decode→Encode trip must reach a
// fixed point without losing instruction semantics.
//
// The committed corpus pins branch-offset sign/boundary encodings: the
// ±4 KiB B-type extremes, the ±1 MiB J-type extremes, and the -2048/+2047
// I/S-type limits that the asm.Builder validation rejects beyond.
//
// Run open-ended with:
//
//	go test ./internal/isa -run '^$' -fuzz '^FuzzDecodeEncode$'
func FuzzDecodeEncode(f *testing.F) {
	seeds := []uint32{
		0x00000073, // ecall
		0x00100073, // ebreak
		0x0000000F, // fence
		0x00000013, // nop (addi x0,x0,0)
		MustEncode(Inst{Op: OpBEQ, Rd: RegNone, Rs1: X1, Rs2: X2, Rs3: RegNone, Imm: 4094}),
		MustEncode(Inst{Op: OpBEQ, Rd: RegNone, Rs1: X1, Rs2: X2, Rs3: RegNone, Imm: -4096}),
		MustEncode(Inst{Op: OpBNE, Rd: RegNone, Rs1: X5, Rs2: X6, Rs3: RegNone, Imm: -2}),
		MustEncode(Inst{Op: OpJAL, Rd: X1, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone, Imm: 1048574}),
		MustEncode(Inst{Op: OpJAL, Rd: X1, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone, Imm: -1048576}),
		MustEncode(Inst{Op: OpADDI, Rd: X5, Rs1: X5, Rs2: RegNone, Rs3: RegNone, Imm: -2048}),
		MustEncode(Inst{Op: OpSW, Rd: RegNone, Rs1: X2, Rs2: X8, Rs3: RegNone, Imm: 2047}),
		MustEncode(Inst{Op: OpFMADDS, Rd: F0, Rs1: F1, Rs2: F2, Rs3: F3}),
		MustEncode(Inst{Op: OpFLW, Rd: F5, Rs1: X10, Rs2: RegNone, Rs3: RegNone, Imm: -2048}),
		MustEncode(Inst{Op: OpFSW, Rd: RegNone, Rs1: X10, Rs2: F5, Rs3: RegNone, Imm: 2044}),
		0xFFFFFFFF, // undecodable
	}
	for _, w := range seeds {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, word uint32) {
		in1, err := Decode(word)
		if err != nil {
			return // not part of the modeled subset
		}
		w1, err := Encode(in1)
		if err != nil {
			t.Fatalf("Decode(%#08x) = %v, but Encode failed: %v", word, in1, err)
		}
		in2, err := Decode(w1)
		if err != nil {
			t.Fatalf("Encode(%v) = %#08x does not decode: %v", in1, w1, err)
		}
		if in2 != in1 {
			t.Fatalf("canonicalized word %#08x decodes to %v, original %#08x gave %v", w1, in2, word, in1)
		}
		w2, err := Encode(in2)
		if err != nil {
			t.Fatalf("re-encode of %v failed: %v", in2, err)
		}
		if w2 != w1 {
			t.Fatalf("Encode∘Decode not a fixed point: %#08x -> %#08x -> %#08x", word, w1, w2)
		}
	})
}

// TestBranchOffsetBoundaries pins the exact signed boundaries of the B- and
// J-type immediates through a full encode/decode cycle.
func TestBranchOffsetBoundaries(t *testing.T) {
	cases := []struct {
		op  Op
		imm int32
		ok  bool
	}{
		{OpBEQ, 4094, true},
		{OpBEQ, 4096, false},
		{OpBEQ, -4096, true},
		{OpBEQ, -4098, false},
		{OpBEQ, 3, false}, // misaligned
		{OpJAL, 1048574, true},
		{OpJAL, 1048576, false},
		{OpJAL, -1048576, true},
		{OpJAL, -1048578, false},
	}
	for _, c := range cases {
		in := Inst{Op: c.op, Rd: RegNone, Rs1: X1, Rs2: X2, Rs3: RegNone, Imm: c.imm}
		if c.op == OpJAL {
			in = Inst{Op: OpJAL, Rd: X1, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone, Imm: c.imm}
		}
		w, err := Encode(in)
		if !c.ok {
			if err == nil {
				t.Errorf("%v imm=%d: expected encode error", c.op, c.imm)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v imm=%d: %v", c.op, c.imm, err)
			continue
		}
		got, err := Decode(w)
		if err != nil {
			t.Errorf("%v imm=%d: decode: %v", c.op, c.imm, err)
			continue
		}
		if got.Imm != c.imm {
			t.Errorf("%v: imm %d round-tripped to %d", c.op, c.imm, got.Imm)
		}
	}
}
