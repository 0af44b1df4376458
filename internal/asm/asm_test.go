package asm

import (
	"testing"

	"mesa/internal/isa"
)

func TestBuilderLabels(t *testing.T) {
	b := NewBuilder(0x1000)
	b.LI(isa.X5, 0)
	b.LI(isa.X6, 10)
	b.Label("loop")
	b.ADDI(isa.X5, isa.X5, 1)
	b.BNE(isa.X5, isa.X6, "loop")
	b.ECALL()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x1000 {
		t.Errorf("base = %#x", p.Base)
	}
	br := p.Insts[3]
	if br.Op != isa.OpBNE || br.Imm != -4 {
		t.Errorf("branch = %v (imm %d), want bne imm -4", br, br.Imm)
	}
	if got := p.Symbols["loop"]; got != 0x1008 {
		t.Errorf("label addr = %#x, want 0x1008", got)
	}
	if br.BranchTarget() != p.Symbols["loop"] {
		t.Errorf("branch target %#x != label %#x", br.BranchTarget(), p.Symbols["loop"])
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder(0)
	b.BNE(isa.X1, isa.X2, "nowhere")
	if _, err := b.Program(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder(0)
	b.Label("x").NOP().Label("x")
	if _, err := b.Program(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestLIExpansion(t *testing.T) {
	cases := []struct {
		value int32
		insts int
	}{
		{0, 1},
		{42, 1},
		{-42, 1},
		{2047, 1},
		{2048, 2},
		{-2048, 1},
		{0x12345678, 2},
		{-559038737, 2}, // 0xDEADBEEF
		{0x7FFFF000, 1},
	}
	for _, c := range cases {
		b := NewBuilder(0)
		b.LI(isa.X5, c.value)
		b.ECALL()
		p, err := b.Program()
		if err != nil {
			t.Fatalf("LI(%d): %v", c.value, err)
		}
		if got := len(p.Insts) - 1; got != c.insts {
			t.Errorf("LI(%d) used %d insts, want %d", c.value, got, c.insts)
		}
		// Verify the encoded value by interpretation.
		var reg uint32
		for _, in := range p.Insts[:len(p.Insts)-1] {
			switch in.Op {
			case isa.OpLUI:
				reg = uint32(in.Imm)
			case isa.OpADDI:
				if in.Rs1 == isa.X0 {
					reg = uint32(in.Imm)
				} else {
					reg += uint32(in.Imm)
				}
			}
		}
		if reg != uint32(c.value) {
			t.Errorf("LI(%d) materialized %#x", c.value, reg)
		}
		// All immediates must be encodable.
		for _, in := range p.Insts {
			if _, err := isa.Encode(in); err != nil {
				t.Errorf("LI(%d): unencodable %v: %v", c.value, in, err)
			}
		}
	}
}

func TestAssembleBasic(t *testing.T) {
	src := `
	# simple counted loop
	li   t0, 0
	li   t1, 8
loop:
	addi t0, t0, 1
	bne  t0, t1, loop
	ecall
`
	p, err := Assemble(0x2000, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 5 {
		t.Fatalf("got %d instructions", len(p.Insts))
	}
	if p.Insts[3].Imm != -4 {
		t.Errorf("branch imm = %d", p.Insts[3].Imm)
	}
}

func TestAssembleMemoryAndFP(t *testing.T) {
	src := `
	lw   a0, 8(sp)
	sw   a1, -4(a2)
	flw  fa0, 0(a0)
	fsw  fa1, 12(a0)
	fmadd.s f0, f1, f2, f3
	fsqrt.s f4, f5
	fadd.s fa2, fa0, fa1
	jalr ra, 0(t0)
	ecall
`
	p, err := Assemble(0, src)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		i  int
		op isa.Op
	}{
		{0, isa.OpLW}, {1, isa.OpSW}, {2, isa.OpFLW}, {3, isa.OpFSW},
		{4, isa.OpFMADDS}, {5, isa.OpFSQRTS}, {6, isa.OpFADDS}, {7, isa.OpJALR},
	}
	for _, c := range checks {
		if p.Insts[c.i].Op != c.op {
			t.Errorf("inst %d = %v, want %v", c.i, p.Insts[c.i].Op, c.op)
		}
	}
	if p.Insts[0].Rd != isa.RegA0 || p.Insts[0].Imm != 8 || p.Insts[0].Rs1 != isa.RegSP {
		t.Errorf("lw parsed as %v", p.Insts[0])
	}
	if p.Insts[2].Rd != isa.FPReg(10) {
		t.Errorf("flw rd = %v, want fa0", p.Insts[2].Rd)
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frob x1, x2, x3",
		"add x1, x2",
		"lw x1, x2, x3",
		"addi x1, x2, 999999999999",
		"beq x1, x2",
		"add x1, x2, q9",
		"add f1, f2, f3",    // x-register op with f registers
		"fadd.s x1, x2, x3", // and the other way round
		"flw x1, 0(x2)",
		"jal x1, 3", // odd jump offset
	}
	for _, src := range bad {
		if _, err := Assemble(0, src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestAssembleRoundTripThroughEncoder(t *testing.T) {
	src := `
	li   t0, 0
	li   t1, 64
loop:
	slli t2, t0, 2
	add  t3, a0, t2
	lw   t4, 0(t3)
	addi t4, t4, 1
	sw   t4, 0(t3)
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`
	p, err := Assemble(0x8000, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range p.Insts {
		word, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		got, err := isa.Decode(word)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		got.Addr = in.Addr
		if got != in {
			t.Errorf("round trip %v -> %v", in, got)
		}
	}
}

func TestBuilderPC(t *testing.T) {
	b := NewBuilder(0x100)
	if b.PC() != 0x100 {
		t.Errorf("PC = %#x", b.PC())
	}
	b.NOP().NOP()
	if b.PC() != 0x108 || b.Len() != 2 {
		t.Errorf("PC = %#x, Len = %d", b.PC(), b.Len())
	}
}
