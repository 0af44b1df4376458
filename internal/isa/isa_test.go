package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sampleInsts returns one representative instruction per encodable opcode.
func sampleInsts() []Inst {
	none := RegNone
	return []Inst{
		{Op: OpADD, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpSUB, Rd: X1, Rs1: X2, Rs2: X3, Rs3: none},
		{Op: OpSLL, Rd: X8, Rs1: X9, Rs2: X10, Rs3: none},
		{Op: OpSLT, Rd: X11, Rs1: X12, Rs2: X13, Rs3: none},
		{Op: OpSLTU, Rd: X14, Rs1: X15, Rs2: X16, Rs3: none},
		{Op: OpXOR, Rd: X17, Rs1: X18, Rs2: X19, Rs3: none},
		{Op: OpSRL, Rd: X20, Rs1: X21, Rs2: X22, Rs3: none},
		{Op: OpSRA, Rd: X23, Rs1: X24, Rs2: X25, Rs3: none},
		{Op: OpOR, Rd: X26, Rs1: X27, Rs2: X28, Rs3: none},
		{Op: OpAND, Rd: X29, Rs1: X30, Rs2: X31, Rs3: none},
		{Op: OpADDI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: -42},
		{Op: OpSLTI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 100},
		{Op: OpSLTIU, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 100},
		{Op: OpXORI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: -1},
		{Op: OpORI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 0x7F},
		{Op: OpANDI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 0xFF},
		{Op: OpSLLI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 7},
		{Op: OpSRLI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 13},
		{Op: OpSRAI, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 31},
		{Op: OpLUI, Rd: X5, Rs1: none, Rs2: none, Rs3: none, Imm: 0x12345000},
		{Op: OpAUIPC, Rd: X5, Rs1: none, Rs2: none, Rs3: none, Imm: -4096},
		{Op: OpMUL, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpMULH, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpMULHSU, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpMULHU, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpDIV, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpDIVU, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpREM, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpREMU, Rd: X5, Rs1: X6, Rs2: X7, Rs3: none},
		{Op: OpLB, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: -8},
		{Op: OpLH, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 16},
		{Op: OpLW, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 2047},
		{Op: OpLBU, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: -2048},
		{Op: OpLHU, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 0},
		{Op: OpSB, Rd: none, Rs1: X6, Rs2: X7, Rs3: none, Imm: -8},
		{Op: OpSH, Rd: none, Rs1: X6, Rs2: X7, Rs3: none, Imm: 16},
		{Op: OpSW, Rd: none, Rs1: X6, Rs2: X7, Rs3: none, Imm: 1024},
		{Op: OpBEQ, Rd: none, Rs1: X5, Rs2: X6, Rs3: none, Imm: -64},
		{Op: OpBNE, Rd: none, Rs1: X5, Rs2: X6, Rs3: none, Imm: 64},
		{Op: OpBLT, Rd: none, Rs1: X5, Rs2: X6, Rs3: none, Imm: 4094},
		{Op: OpBGE, Rd: none, Rs1: X5, Rs2: X6, Rs3: none, Imm: -4096},
		{Op: OpBLTU, Rd: none, Rs1: X5, Rs2: X6, Rs3: none, Imm: 8},
		{Op: OpBGEU, Rd: none, Rs1: X5, Rs2: X6, Rs3: none, Imm: -8},
		{Op: OpJAL, Rd: X1, Rs1: none, Rs2: none, Rs3: none, Imm: -2048},
		{Op: OpJALR, Rd: X1, Rs1: X5, Rs2: none, Rs3: none, Imm: 12},
		{Op: OpFLW, Rd: F5, Rs1: X6, Rs2: none, Rs3: none, Imm: 4},
		{Op: OpFSW, Rd: none, Rs1: X6, Rs2: F7, Rs3: none, Imm: -4},
		{Op: OpFADDS, Rd: F1, Rs1: F2, Rs2: F3, Rs3: none},
		{Op: OpFSUBS, Rd: F4, Rs1: F5, Rs2: F6, Rs3: none},
		{Op: OpFMULS, Rd: F7, Rs1: F8, Rs2: F9, Rs3: none},
		{Op: OpFDIVS, Rd: F10, Rs1: F11, Rs2: F12, Rs3: none},
		{Op: OpFSQRTS, Rd: F13, Rs1: F14, Rs2: none, Rs3: none},
		{Op: OpFMINS, Rd: F15, Rs1: F16, Rs2: F17, Rs3: none},
		{Op: OpFMAXS, Rd: F18, Rs1: F19, Rs2: F20, Rs3: none},
		{Op: OpFMADDS, Rd: F1, Rs1: F2, Rs2: F3, Rs3: F4},
		{Op: OpFMSUBS, Rd: F5, Rs1: F6, Rs2: F7, Rs3: F8},
		{Op: OpFNMADDS, Rd: F9, Rs1: F10, Rs2: F11, Rs3: F12},
		{Op: OpFNMSUBS, Rd: F13, Rs1: F14, Rs2: F15, Rs3: F16},
		{Op: OpFCVTWS, Rd: X5, Rs1: F6, Rs2: none, Rs3: none},
		{Op: OpFCVTWUS, Rd: X5, Rs1: F6, Rs2: none, Rs3: none},
		{Op: OpFCVTSW, Rd: F5, Rs1: X6, Rs2: none, Rs3: none},
		{Op: OpFCVTSWU, Rd: F5, Rs1: X6, Rs2: none, Rs3: none},
		{Op: OpFMVXW, Rd: X5, Rs1: F6, Rs2: none, Rs3: none},
		{Op: OpFMVWX, Rd: F5, Rs1: X6, Rs2: none, Rs3: none},
		{Op: OpFEQS, Rd: X5, Rs1: F6, Rs2: F7, Rs3: none},
		{Op: OpFLTS, Rd: X5, Rs1: F6, Rs2: F7, Rs3: none},
		{Op: OpFLES, Rd: X5, Rs1: F6, Rs2: F7, Rs3: none},
		{Op: OpFSGNJS, Rd: F5, Rs1: F6, Rs2: F7, Rs3: none},
		{Op: OpFSGNJNS, Rd: F5, Rs1: F6, Rs2: F7, Rs3: none},
		{Op: OpFSGNJXS, Rd: F5, Rs1: F6, Rs2: F7, Rs3: none},
		{Op: OpFCLASSS, Rd: X5, Rs1: F6, Rs2: none, Rs3: none},
		{Op: OpECALL, Rd: none, Rs1: none, Rs2: none, Rs3: none},
		{Op: OpEBREAK, Rd: none, Rs1: none, Rs2: none, Rs3: none},
		{Op: OpFENCE, Rd: none, Rs1: none, Rs2: none, Rs3: none},
		{Op: OpCSRRW, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 0x300},
		{Op: OpCSRRS, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 0x301},
		{Op: OpCSRRC, Rd: X5, Rs1: X6, Rs2: none, Rs3: none, Imm: 0x302},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, in := range sampleInsts() {
		word, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		got, err := Decode(word)
		if err != nil {
			t.Fatalf("decode %v (%#08x): %v", in, word, err)
		}
		got.Addr = in.Addr
		if got != in {
			t.Errorf("round trip %v: got %v (word %#08x)", in, got, word)
		}
	}
}

func TestEncodeRejectsOutOfRangeImmediates(t *testing.T) {
	cases := []Inst{
		{Op: OpADDI, Rd: X1, Rs1: X2, Rs2: RegNone, Rs3: RegNone, Imm: 5000},
		{Op: OpADDI, Rd: X1, Rs1: X2, Rs2: RegNone, Rs3: RegNone, Imm: -5000},
		{Op: OpSW, Rd: RegNone, Rs1: X2, Rs2: X3, Rs3: RegNone, Imm: 4096},
		{Op: OpBEQ, Rd: RegNone, Rs1: X2, Rs2: X3, Rs3: RegNone, Imm: 3}, // misaligned
		{Op: OpBEQ, Rd: RegNone, Rs1: X2, Rs2: X3, Rs3: RegNone, Imm: 1 << 14},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("expected encode error for %v", in)
		}
	}
}

// TestDecodeRandomWordsNeverPanics is a property test: arbitrary 32-bit
// words must decode or error, never crash, and successful decodes must
// re-encode to a word that decodes to the same instruction.
func TestDecodeRandomWordsNeverPanics(t *testing.T) {
	f := func(word uint32) bool {
		in, err := Decode(word)
		if err != nil {
			return true
		}
		word2, err := Encode(in)
		if err != nil {
			// Some decodable fields (e.g. CSR immediates beyond 12-bit
			// signed range) may not re-encode; tolerate explicit errors.
			return true
		}
		in2, err := Decode(word2)
		if err != nil {
			return false
		}
		return in2 == in
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSourcesAndDest(t *testing.T) {
	add := Inst{Op: OpADD, Rd: X5, Rs1: X6, Rs2: X7, Rs3: RegNone}
	if s := add.Sources(); s != [3]Reg{X6, X7, RegNone} {
		t.Errorf("add sources = %v", s)
	}
	if rd, ok := add.Dest(); !ok || rd != X5 {
		t.Errorf("add dest = %v %v", rd, ok)
	}

	// Writes to x0 are discarded.
	addX0 := Inst{Op: OpADD, Rd: X0, Rs1: X6, Rs2: X7, Rs3: RegNone}
	if _, ok := addX0.Dest(); ok {
		t.Error("write to x0 should report no destination")
	}

	// Reads of x0 create no dependency.
	addi := Inst{Op: OpADDI, Rd: X5, Rs1: X0, Rs2: RegNone, Rs3: RegNone, Imm: 1}
	if s := addi.Sources(); s[0] != RegNone {
		t.Errorf("x0 source should be RegNone, got %v", s[0])
	}

	// ADDI reads only rs1.
	addi2 := Inst{Op: OpADDI, Rd: X5, Rs1: X6, Rs2: X9, Rs3: RegNone, Imm: 1}
	if s := addi2.Sources(); s[1] != RegNone {
		t.Errorf("addi must not read rs2, got %v", s[1])
	}

	// CSR ops write rd: the simulator writes it, so a later reader depends
	// on the CSR op. Other system ops write nothing.
	csrrw := Inst{Op: OpCSRRW, Rd: X5, Rs1: X6, Rs2: RegNone, Rs3: RegNone, Imm: 0x300}
	if rd, ok := csrrw.Dest(); !ok || rd != X5 {
		t.Errorf("csrrw x5, x6, 0x300 dest = %v %v, want x5", rd, ok)
	}
	if _, ok := (Inst{Op: OpECALL, Rd: RegNone, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone}).Dest(); ok {
		t.Error("ecall should have no destination")
	}

	// Stores read rs1 (base) and rs2 (data) but write nothing.
	sw := Inst{Op: OpSW, Rd: RegNone, Rs1: X6, Rs2: X7, Rs3: RegNone}
	if s := sw.Sources(); s != [3]Reg{X6, X7, RegNone} {
		t.Errorf("sw sources = %v", s)
	}
	if _, ok := sw.Dest(); ok {
		t.Error("store should have no destination")
	}

	// FMA reads three registers.
	fma := Inst{Op: OpFMADDS, Rd: F1, Rs1: F2, Rs2: F3, Rs3: F4}
	if s := fma.Sources(); s != [3]Reg{F2, F3, F4} {
		t.Errorf("fma sources = %v", s)
	}
}

func TestClassification(t *testing.T) {
	checks := []struct {
		op   Op
		cls  Class
		isFP bool
	}{
		{OpADD, ClassALU, false},
		{OpMUL, ClassMul, false},
		{OpDIV, ClassDiv, false},
		{OpLW, ClassLoad, false},
		{OpFLW, ClassLoad, true},
		{OpSW, ClassStore, false},
		{OpFSW, ClassStore, true},
		{OpBEQ, ClassBranch, false},
		{OpJAL, ClassJump, false},
		{OpFADDS, ClassFPAdd, true},
		{OpFMULS, ClassFPMul, true},
		{OpFMADDS, ClassFPMul, true},
		{OpFDIVS, ClassFPDiv, true},
		{OpFSQRTS, ClassFPDiv, true},
		{OpECALL, ClassSystem, false},
	}
	for _, c := range checks {
		if got := c.op.Class(); got != c.cls {
			t.Errorf("%v class = %v, want %v", c.op, got, c.cls)
		}
		if got := c.op.IsFP(); got != c.isFP {
			t.Errorf("%v IsFP = %v, want %v", c.op, got, c.isFP)
		}
	}
}

func TestBranchHelpers(t *testing.T) {
	br := Inst{Op: OpBNE, Rd: RegNone, Rs1: X5, Rs2: X0, Rs3: RegNone, Imm: -16, Addr: 0x100}
	if !br.IsBackwardBranch() {
		t.Error("negative-offset branch should be backward")
	}
	if got := br.BranchTarget(); got != 0xF0 {
		t.Errorf("branch target = %#x, want 0xf0", got)
	}
	fwd := Inst{Op: OpBEQ, Rd: RegNone, Rs1: X5, Rs2: X0, Rs3: RegNone, Imm: 8, Addr: 0x100}
	if fwd.IsBackwardBranch() {
		t.Error("positive-offset branch is not backward")
	}
}

func TestProgramAt(t *testing.T) {
	prog := isaProgram(0x1000, 4)
	p := &prog
	if in, ok := p.At(0x1004); !ok || in.Addr != 0x1004 {
		t.Errorf("At(0x1004) = %v %v", in, ok)
	}
	if _, ok := p.At(0x0FFC); ok {
		t.Error("address below base should miss")
	}
	if _, ok := p.At(0x1002); ok {
		t.Error("misaligned address should miss")
	}
	if _, ok := p.At(p.End()); ok {
		t.Error("address past end should miss")
	}
	if got := len(p.Slice(0x1004, 0x100C)); got != 2 {
		t.Errorf("Slice len = %d, want 2", got)
	}
}

func TestProgramLoopBody(t *testing.T) {
	prog := isaProgram(0x1000, 7)
	p := &prog
	branchTo := func(i int, target uint32) {
		in := &p.Insts[i]
		*in = Inst{Op: OpBNE, Rd: RegNone, Rs1: X5, Rs2: X6, Rs3: RegNone,
			Imm: int32(target) - int32(in.Addr), Addr: in.Addr}
	}
	branchTo(2, 0x1004) // first branch closing the loop at 0x1004
	branchTo(4, 0x1004) // the last one bounds the body
	branchTo(5, 0x1000) // targets another loop head
	body := p.LoopBody(0x1004)
	if len(body) != 4 || body[0].Addr != 0x1004 || body[3].Addr != 0x1010 {
		t.Errorf("LoopBody(0x1004) = %v, want 0x1004 through 0x1010", body)
	}
	if got := len(p.LoopBody(0x1000)); got != 6 {
		t.Errorf("LoopBody(0x1000) len = %d, want 6", got)
	}
	if body := p.LoopBody(0x1008); body != nil {
		t.Errorf("LoopBody with no closing branch = %v, want nil", body)
	}
}

// isaProgram builds an n-instruction nop program at base.
func isaProgram(base uint32, n int) Program {
	insts := make([]Inst, n)
	for i := range insts {
		insts[i] = Nop()
		insts[i].Addr = base + uint32(4*i)
	}
	return Program{Base: base, Insts: insts}
}

func TestRegHelpers(t *testing.T) {
	if !F0.IsFP() || X0.IsFP() {
		t.Error("IsFP misclassifies")
	}
	if F7.Num() != 7 || X7.Num() != 7 {
		t.Error("Num should strip the file bit")
	}
	if IntReg(31) != X31 || FPReg(31) != F31 {
		t.Error("register constructors broken")
	}
	if X5.String() != "x5" || F5.String() != "f5" || RegNone.String() != "-" {
		t.Error("register names broken")
	}
}
