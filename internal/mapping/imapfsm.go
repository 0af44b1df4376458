package mapping

import (
	"bytes"
	"fmt"
	"strings"

	"mesa/internal/accel"
)

// ImapState is a state of the instruction-mapping state machine (Figure 8).
// The FSM processes one LDFG entry at a time: read the instruction, generate
// the candidate matrix around the higher-latency predecessor, filter it by
// F_free ⊙ F_op, reduce the latency matrix to its argmin, and write the
// placement into the SDFG.
type ImapState uint8

// FSM states, in per-instruction order.
const (
	ImapIdle ImapState = iota
	ImapRead
	ImapCandidates
	ImapFilter
	ImapReduce
	ImapWrite
	ImapDone
)

var imapStateNames = [...]string{
	ImapIdle: "idle", ImapRead: "read", ImapCandidates: "cand",
	ImapFilter: "filter", ImapReduce: "reduce", ImapWrite: "write",
	ImapDone: "done",
}

func (s ImapState) String() string {
	if int(s) < len(imapStateNames) {
		return imapStateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ImapStep is one FSM dwell: a state held for Cycles cycles while mapping
// instruction Node.
type ImapStep struct {
	Node   int
	State  ImapState
	Cycles int
}

// ImapTrace is the cycle-by-cycle activity of the imap FSM for one region —
// the data behind Figure 8's timing diagram.
type ImapTrace struct {
	Steps       []ImapStep
	TotalCycles int
}

// SimulateImapFSM replays the mapping of an LDFG as the hardware state
// machine would execute it, using the actual per-instruction candidate
// counts the mapper visited. The FSM models the hardware's greedy mapper
// (Algorithm 1), so the replay always uses the greedy pass regardless of
// which Strategy produced the deployed placement. Every state is
// constant-duration except the reduction, whose depth is the log of the
// candidate-matrix population (the argmin reduction tree).
//
// Invariant (tested): the trace's total equals EstimateConfigCost's
// InstrMap component — the formula and the machine agree cycle-for-cycle.
func SimulateImapFSM(l *LDFG, be *accel.Config, opts Options) (*ImapTrace, *SDFG, error) {
	// The probe records each node's candidate-matrix population, the
	// variable input to the reduce stage, during the mapping pass itself.
	mapper := NewMapper(opts)
	mapper.probe = make([]int, 0, l.Graph.Len())
	sdfg, stats, err := mapper.Map(l, be)
	if err != nil {
		return nil, nil, err
	}

	tr := &ImapTrace{}
	add := func(node int, st ImapState, cycles int) {
		tr.Steps = append(tr.Steps, ImapStep{Node: node, State: st, Cycles: cycles})
		tr.TotalCycles += cycles
	}
	for i, cand := range mapper.probe {
		add(i, ImapRead, 1)
		add(i, ImapCandidates, 1)
		add(i, ImapFilter, 1)
		add(i, ImapReduce, ReductionDepth(cand))
		add(i, ImapWrite, 1)
	}

	// Cross-check against the aggregate statistics.
	if got := sumReduce(tr); got != stats.ReductionCycles {
		return nil, nil, fmt.Errorf("mapping: FSM reduction cycles %d != mapper stats %d", got, stats.ReductionCycles)
	}
	return tr, sdfg, nil
}

func sumReduce(tr *ImapTrace) int {
	n := 0
	for _, s := range tr.Steps {
		if s.State == ImapReduce {
			n += s.Cycles
		}
	}
	return n
}

// RenderTimingDiagram renders the FSM trace in the style of Figure 8: one
// row per instruction, one column per cycle, letters naming the active
// state (r=read, c=candidates, f=filter, R=reduce, w=write).
func (tr *ImapTrace) RenderTimingDiagram(maxNodes int) string {
	letters := map[ImapState][]byte{
		ImapRead: {'r'}, ImapCandidates: {'c'}, ImapFilter: {'f'},
		ImapReduce: {'R'}, ImapWrite: {'w'},
	}
	var b strings.Builder
	cycle := 0
	row := -1
	var line []byte
	flush := func() {
		if row >= 0 && row < maxNodes {
			fmt.Fprintf(&b, "i%-3d %s\n", row, line)
		}
	}
	for _, st := range tr.Steps {
		if st.Node != row {
			flush()
			row = st.Node
			line = bytes.Repeat([]byte{' '}, cycle)
		}
		line = append(line, bytes.Repeat(letters[st.State], st.Cycles)...)
		cycle += st.Cycles
	}
	flush()
	if tr.Steps != nil && tr.Steps[len(tr.Steps)-1].Node >= maxNodes {
		fmt.Fprintf(&b, "... (%d more instructions)\n", tr.Steps[len(tr.Steps)-1].Node+1-maxNodes)
	}
	fmt.Fprintf(&b, "total: %d cycles\n", tr.TotalCycles)
	return b.String()
}
