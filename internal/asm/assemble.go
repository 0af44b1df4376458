package asm

import (
	"fmt"
	"strconv"
	"strings"

	"mesa/internal/isa"
)

// Assemble parses a small RISC-V assembly dialect into a Program based at
// base. Supported syntax per line (comments start with '#' or '//'):
//
//	label:
//	add  x5, x6, x7
//	addi t0, t0, -4
//	lw   a0, 8(sp)
//	sw   a1, 0(a2)
//	beq  t0, zero, done  |  beq t0, zero, -8
//	jal  ra, func        |  jal ra, 64  |  j loop
//	fmadd.s f0, f1, f2, f3
//	li   t0, 123456      (pseudo, expands to lui+addi as needed)
//	mv   t0, t1          (pseudo)
//	nop / ecall / ebreak / fence / ret
//
// Each op's operands follow its format (isa.Op.Operands), the syntax
// Inst.String prints; a branch or jump target is a label or a byte offset.
func Assemble(base uint32, src string) (*isa.Program, error) {
	b := NewBuilder(base)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for strings.Contains(line, ":") {
			i := strings.Index(line, ":")
			label := strings.TrimSpace(line[:i])
			if label == "" {
				return nil, fmt.Errorf("asm: line %d: empty label", lineNo+1)
			}
			b.Label(label)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := assembleLine(b, line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", lineNo+1, err)
		}
	}
	return b.Program()
}

// MustAssemble is Assemble but panics on error.
func MustAssemble(base uint32, src string) *isa.Program {
	p, err := Assemble(base, src)
	if err != nil {
		panic(err)
	}
	return p
}

var mnemonicOps = func() map[string]isa.Op {
	m := make(map[string]isa.Op)
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

var abiRegs = func() map[string]isa.Reg {
	m := map[string]isa.Reg{
		"zero": isa.X0, "ra": isa.X1, "sp": isa.X2, "gp": isa.X3, "tp": isa.X4,
		"fp": isa.X8,
	}
	for i := 0; i < 32; i++ {
		m[fmt.Sprintf("x%d", i)] = isa.IntReg(i)
		m[fmt.Sprintf("f%d", i)] = isa.FPReg(i)
	}
	for i, r := range []isa.Reg{isa.X5, isa.X6, isa.X7, isa.X28, isa.X29, isa.X30, isa.X31} {
		m[fmt.Sprintf("t%d", i)] = r
	}
	m["s0"], m["s1"] = isa.X8, isa.X9
	for i := 2; i <= 11; i++ {
		m[fmt.Sprintf("s%d", i)] = isa.IntReg(16 + i)
	}
	for i := 0; i <= 7; i++ {
		m[fmt.Sprintf("a%d", i)] = isa.IntReg(10 + i)
	}
	for i := 0; i <= 7; i++ {
		m[fmt.Sprintf("ft%d", i)] = isa.FPReg(i)
		m[fmt.Sprintf("fa%d", i)] = isa.FPReg(10 + i)
	}
	for i := 0; i <= 1; i++ {
		m[fmt.Sprintf("fs%d", i)] = isa.FPReg(8 + i)
	}
	for i := 2; i <= 11; i++ {
		m[fmt.Sprintf("fs%d", i)] = isa.FPReg(16 + i)
	}
	return m
}()

func parseReg(s string) (isa.Reg, error) {
	if r, ok := abiRegs[strings.TrimSpace(s)]; ok {
		return r, nil
	}
	return 0, fmt.Errorf("unknown register %q", s)
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if v < -(1<<31) || v > 1<<32-1 {
		return 0, fmt.Errorf("immediate %q out of 32-bit range", s)
	}
	return int32(v), nil
}

// parseMem parses "imm(reg)".
func parseMem(s string) (int32, isa.Reg, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	imm := int32(0)
	if immStr != "" {
		v, err := parseImm(immStr)
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	reg, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return imm, reg, nil
}

func assembleLine(b *Builder, line string) error {
	fields := strings.SplitN(line, " ", 2)
	mnem := strings.ToLower(fields[0])
	rest := ""
	if len(fields) == 2 {
		rest = fields[1]
	}
	args := splitOperands(rest)

	// Pseudo-instructions first.
	switch mnem {
	case "li":
		if len(args) != 2 {
			return fmt.Errorf("li needs 2 operands")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return err
		}
		b.LI(rd, imm)
		return b.Err()
	case "mv":
		if len(args) != 2 {
			return fmt.Errorf("mv needs 2 operands")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(args[1])
		if err != nil {
			return err
		}
		b.MV(rd, rs)
		return b.Err()
	case "fmv.s":
		if len(args) != 2 {
			return fmt.Errorf("fmv.s needs 2 operands")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(args[1])
		if err != nil {
			return err
		}
		b.FMV(rd, rs)
		return b.Err()
	case "j":
		if len(args) != 1 {
			return fmt.Errorf("j needs a label")
		}
		b.J(args[0])
		return b.Err()
	case "ret":
		b.RET()
		return b.Err()
	}

	op, ok := mnemonicOps[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	operands := op.Operands()
	// An op without operands ignores any given (fence's ordering sets).
	if len(operands) > 0 && len(args) != len(operands) {
		names := make([]string, len(operands))
		for i, o := range operands {
			names[i] = o.String()
		}
		return fmt.Errorf("%s needs %s", mnem, strings.Join(names, ", "))
	}
	in := isa.Inst{Op: op, Rd: isa.RegNone, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone}
	label := ""
	for i, o := range operands {
		var err error
		switch o {
		case isa.OperandRd:
			in.Rd, err = parseReg(args[i])
		case isa.OperandRs1:
			in.Rs1, err = parseReg(args[i])
		case isa.OperandRs2:
			in.Rs2, err = parseReg(args[i])
		case isa.OperandRs3:
			in.Rs3, err = parseReg(args[i])
		case isa.OperandImm:
			in.Imm, err = parseImm(args[i])
		case isa.OperandUpper:
			in.Imm, err = parseImm(args[i])
			in.Imm <<= 12
		case isa.OperandMem:
			in.Imm, in.Rs1, err = parseMem(args[i])
		case isa.OperandTarget:
			if imm, immErr := parseImm(args[i]); immErr == nil {
				in.Imm = imm
			} else {
				label = args[i]
			}
		}
		if err != nil {
			return err
		}
	}
	if label != "" {
		b.emitTo(in, label)
	} else {
		b.Emit(in)
	}
	return b.Err()
}

func splitOperands(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
