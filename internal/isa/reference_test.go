package isa

import (
	"fmt"
	"testing"
)

// decodeFills are the rd and rs1 fields every word of the decode space is
// tried with: the decoder ignores neither field's value, so two fills that
// differ in every bit cover both.
var decodeFills = [][2]uint32{{0, 0}, {31, 31}, {5, 18}}

// TestDecodeMatchesReference decodes every opcode × funct3 × funct7 × rs2
// word (4,194,304 of them) under each rd/rs1 fill with the table-driven
// Decode and with the switch-based reference: the same Inst, and success
// or failure in the same cases.
func TestDecodeMatchesReference(t *testing.T) {
	fills := decodeFills
	if testing.Short() {
		fills = fills[:2]
	}
	for _, fill := range fills {
		bad := 0
		for hi := uint32(0); hi < 1<<12; hi++ { // funct7 and rs2
			for lo := uint32(0); lo < 1<<10; lo++ { // funct3 and opcode
				word := hi<<20 | fill[1]<<15 | lo>>7<<12 | fill[0]<<7 | lo&0x7F
				got, err := Decode(word)
				want, refErr := refDecode(word)
				if (err == nil) != (refErr == nil) || got != want {
					if bad++; bad <= 10 {
						t.Errorf("Decode(%#08x) = %v, %v; reference %v, %v", word, got, err, want, refErr)
					}
				}
			}
		}
		if bad > 10 {
			t.Fatalf("%d words decode differently from the reference", bad)
		}
	}
}

// xEdges and fEdges are the register edge values of each file.
var (
	xEdges = []Reg{X0, X1, X17, X31}
	fEdges = []Reg{F0, F1, F17, F31}
)

// encodeImms are the immediate edge values: every format's range limits,
// one past them, alignment misses, and the extremes of int32.
var encodeImms = []int32{
	0, 1, -1, 2, -2, 3, 31, 32, 0x7FF, -0x800, 0x800, -0x801, 0xFFF, 0x1000,
	0xFFE, -0x1000, -0x1002, 0x1001, 0xFFFFE, -0x100000, 0x100000, -0x100002,
	0x12345000, -4096, 0x7FFFFFFF, -0x80000000,
}

// TestEncodeMatchesReference encodes every op over register and immediate
// edge values, with every operand in the file the op reads or writes, and
// compares word and success with the map-based reference encoder.
func TestEncodeMatchesReference(t *testing.T) {
	for op := OpInvalid; op <= numOps; op++ {
		r := op.info()
		var slots [4][]Reg // candidates per slot; an unused slot holds junk
		for i := range slots {
			switch r.regs[i] {
			case 'x':
				slots[i] = xEdges
			case 'f':
				slots[i] = fEdges
			default:
				slots[i] = []Reg{RegNone, X7, F9}
			}
		}
		n := 0
		for _, rd := range slots[0] {
			for _, rs1 := range slots[1] {
				for _, rs2 := range slots[2] {
					for _, rs3 := range slots[3] {
						for _, imm := range encodeImms {
							in := Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: rs3, Imm: imm}
							got, err := Encode(in)
							want, refErr := refEncode(in)
							if (err == nil) != (refErr == nil) || got != want {
								t.Fatalf("Encode(%v) = %#08x, %v; reference %#08x, %v", in, got, err, want, refErr)
							}
							n++
						}
					}
				}
			}
		}
		if n == 0 {
			t.Fatalf("%v: no instruction tried", op)
		}
	}
}

// TestEncodeRejectsWrongRegisterFile: an operand from the other register
// file (or no register at all) in a slot the op encodes is an error, so
// two different instructions never share one machine word — add f1, f2, f3
// used to encode as add x1, x2, x3.
func TestEncodeRejectsWrongRegisterFile(t *testing.T) {
	add := Inst{Op: OpADD, Rd: F1, Rs1: F2, Rs2: F3, Rs3: RegNone}
	if w, err := Encode(add); err == nil {
		t.Fatalf("Encode(%v) = %#08x, want an error", add, w)
	}
	fadd := Inst{Op: OpFADDS, Rd: X1, Rs1: X2, Rs2: X3, Rs3: RegNone}
	if w, err := Encode(fadd); err == nil {
		t.Fatalf("Encode(%v) = %#08x, want an error", fadd, w)
	}
	for _, in := range sampleInsts() {
		if _, err := Encode(in); err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		for i := range slotNames {
			var wrong []Reg
			switch in.Op.info().regs[i] {
			case 'x':
				wrong = []Reg{F0, F31, RegNone, 64}
			case 'f':
				wrong = []Reg{X0, X31, RegNone, 64}
			default:
				continue
			}
			for _, w := range wrong {
				bad := in
				*[4]*Reg{&bad.Rd, &bad.Rs1, &bad.Rs2, &bad.Rs3}[i] = w
				if word, err := Encode(bad); err == nil {
					t.Errorf("Encode(%v) with %s = %v: %#08x, want an error", in, slotNames[i], w, word)
				}
			}
		}
	}
}

// TestPredicatesMatchReference compares Class, IsFP, HasImm and the
// mnemonic for every op value, and Sources, Dest and String for every op
// over operand fills that mix both register files, x0 and RegNone.
// OpInvalid is not an instruction: its row has no operands, so it reads
// no register and prints as its bare name, where the reference read rs1 and
// printed three register slots.
func TestPredicatesMatchReference(t *testing.T) {
	fills := [][4]Reg{
		{X5, X6, X7, X8}, {X0, X0, X0, X0}, {F1, F2, F3, F4},
		{RegNone, RegNone, RegNone, RegNone}, {X31, F31, X0, RegNone}, {F0, X0, F9, X3},
	}
	for o := 0; o < 256; o++ {
		op := Op(o)
		if got, want := op.Class(), refClass(op); got != want {
			t.Errorf("%v.Class() = %v, reference %v", op, got, want)
		}
		if got, want := op.IsFP(), refIsFP(op); got != want {
			t.Errorf("%v.IsFP() = %v, reference %v", op, got, want)
		}
		if got, want := op.HasImm(), refHasImm(op); got != want {
			t.Errorf("%v.HasImm() = %v, reference %v", op, got, want)
		}
		if got, want := op.String(), refOpString(op); got != want {
			t.Errorf("Op(%d).String() = %q, reference %q", o, got, want)
		}
		for _, f := range fills {
			for _, imm := range []int32{0, -4, 0x12345000, -0x80000000} {
				in := Inst{Op: op, Rd: f[0], Rs1: f[1], Rs2: f[2], Rs3: f[3], Imm: imm}
				gotR, gotOK := in.Dest()
				wantR, wantOK := refDest(in)
				if gotR != wantR || gotOK != wantOK {
					t.Errorf("%v.Dest() = %v %v, reference %v %v", in, gotR, gotOK, wantR, wantOK)
				}
				if op == OpInvalid || op >= numOps {
					continue
				}
				if got, want := in.Sources(), refSources(in); got != want {
					t.Errorf("%v.Sources() = %v, reference %v", in, got, want)
				}
				if got, want := in.String(), refString(in); got != want {
					t.Errorf("String() = %q, reference %q", got, want)
				}
			}
		}
	}
	if got := fmt.Sprint(Inst{}); got != "invalid" {
		t.Errorf("zero Inst prints %q, want %q", got, "invalid")
	}
}

// TestOpTableWellFormed: every op has a row whose register slots are
// exactly the registers its format's operands name, whose fixed bits lie
// inside its mask, and whose mnemonic is unique.
func TestOpTableWellFormed(t *testing.T) {
	names := map[string]Op{}
	for op := OpInvalid; op < numOps; op++ {
		r := &opTable[op]
		if prev, dup := names[r.name]; dup || r.name == "" {
			t.Errorf("%v: mnemonic %q empty or shared with %v", op, r.name, prev)
		}
		names[r.name] = op
		var named [4]bool
		for _, o := range op.Operands() {
			switch o {
			case OperandRd, OperandRs1, OperandRs2, OperandRs3:
				named[o-OperandRd] = true
			case OperandMem:
				named[1] = true
			}
		}
		if len(r.regs) != 4 {
			t.Fatalf("%v: regs %q is not one file per slot", op, r.regs)
		}
		for i, used := range named {
			if f := r.regs[i]; (f == 'x' || f == 'f') != used || (f != '-' && !used) {
				t.Errorf("%v: slot %s has file %q, but the format names it: %v", op, slotNames[i], f, used)
			}
		}
		if r.match&^r.mask != 0 && r.mask != 0 {
			t.Errorf("%v: match %#08x has bits outside mask %#08x", op, r.match, r.mask)
		}
	}
}
