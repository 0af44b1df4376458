// Package isa implements the RISC-V RV32IMF instruction set used throughout
// the MESA reproduction: instruction representation, binary encoding and
// decoding, disassembly, and operand/classification queries.
//
// The package is the shared vocabulary between the functional simulator
// (internal/sim), the out-of-order CPU timing model (internal/cpu), the MESA
// controller (internal/core), and the spatial accelerator (internal/accel).
package isa

import "fmt"

// Op identifies an RV32IMF operation. The zero value is OpInvalid.
type Op uint8

// RV32I base integer instructions, RV32M multiply/divide extension, and the
// RV32F single-precision floating-point extension, plus the system
// instructions MESA must recognize (and reject) during region checks.
const (
	OpInvalid Op = iota

	// RV32I register-register.
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND

	// RV32I register-immediate.
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI

	// Upper immediates.
	OpLUI
	OpAUIPC

	// RV32M.
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU

	// Loads.
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU

	// Stores.
	OpSB
	OpSH
	OpSW

	// Conditional branches.
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Unconditional jumps.
	OpJAL
	OpJALR

	// RV32F loads/stores.
	OpFLW
	OpFSW

	// RV32F computational.
	OpFADDS
	OpFSUBS
	OpFMULS
	OpFDIVS
	OpFSQRTS
	OpFMINS
	OpFMAXS
	OpFMADDS
	OpFMSUBS
	OpFNMADDS
	OpFNMSUBS

	// RV32F conversion / move / compare.
	OpFCVTWS
	OpFCVTWUS
	OpFCVTSW
	OpFCVTSWU
	OpFMVXW
	OpFMVWX
	OpFEQS
	OpFLTS
	OpFLES
	OpFSGNJS
	OpFSGNJNS
	OpFSGNJXS
	OpFCLASSS

	// System instructions (unsupported by the accelerator; their presence in
	// a loop disqualifies it under criterion C2).
	OpECALL
	OpEBREAK
	OpFENCE
	OpCSRRW
	OpCSRRS
	OpCSRRC

	// NOP is the canonical ADDI x0, x0, 0 pseudo-instruction; the decoder
	// never produces it but builders may emit it explicitly.
	OpNOP

	numOps
)

// NumOps reports the number of distinct operations (for table sizing).
const NumOps = int(numOps)

// Class groups operations by the functional-unit type that executes them.
// PE capability masks (F_op in the paper) and latency tables are keyed by
// Class.
type Class uint8

const (
	ClassInvalid Class = iota
	ClassALU           // integer add/sub/logic/shift/compare/lui/auipc
	ClassMul           // integer multiply
	ClassDiv           // integer divide/remainder
	ClassLoad          // integer and FP loads
	ClassStore         // integer and FP stores
	ClassBranch        // conditional branches
	ClassJump          // jal/jalr
	ClassFPAdd         // fadd/fsub/fmin/fmax/fsgnj/compares/conversions/moves
	ClassFPMul         // fmul and fused multiply-add family
	ClassFPDiv         // fdiv/fsqrt
	ClassSystem        // ecall/ebreak/fence/csr*

	NumClasses = iota
)

var classNames = [...]string{
	ClassInvalid: "invalid", ClassALU: "alu", ClassMul: "mul", ClassDiv: "div",
	ClassLoad: "load", ClassStore: "store", ClassBranch: "branch",
	ClassJump: "jump", ClassFPAdd: "fpadd", ClassFPMul: "fpmul",
	ClassFPDiv: "fpdiv", ClassSystem: "system",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// FUTiming is the timing of the functional unit that executes a class: its
// operation latency in cycles, and whether the unit accepts a new operation
// every cycle (pipelined) or stays busy for the whole latency.
type FUTiming struct {
	Latency   int
	Pipelined bool
}

// fuTimings is the one functional-unit timing table, read by the CPU
// model's FU pools, the accelerator's PE latencies and both baselines. It
// matches the paper's worked example (FP add/sub 3 cycles, FP multiply 5
// cycles). Loads and stores have no entry: the memory system times them.
var fuTimings = [NumClasses]FUTiming{
	ClassALU:    {Latency: 1, Pipelined: true},
	ClassMul:    {Latency: 3, Pipelined: true},
	ClassDiv:    {Latency: 12, Pipelined: false},
	ClassBranch: {Latency: 1, Pipelined: true},
	ClassJump:   {Latency: 1, Pipelined: true},
	ClassFPAdd:  {Latency: 3, Pipelined: true},
	ClassFPMul:  {Latency: 5, Pipelined: true},
	ClassFPDiv:  {Latency: 16, Pipelined: false},
}

// Timing returns the functional-unit timing of the class (zero for the
// memory, system and invalid classes).
func (c Class) Timing() FUTiming { return fuTimings[c] }

// ClassLatencies returns every class's functional-unit latency as a
// per-class table of node weights.
func ClassLatencies() [NumClasses]float64 {
	var l [NumClasses]float64
	for c, t := range fuTimings {
		l[c] = float64(t.Latency)
	}
	return l
}
