package cpu

import (
	"fmt"

	"mesa/internal/isa"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// StoreOracle drives a Core and checks its bounded store queue against the
// unbounded word→completion map it replaced. Before each load it compares
// what the two can forward: the map's entry for the word counts whenever it
// completes after the load's dispatch (only then can sc > start hold), and
// the queue must hold exactly that entry.
type StoreOracle struct {
	Core *Core
	ref  map[uint32]float64

	Err         error // first disagreement
	Loads       int   // loads checked
	Forwardable int   // loads whose word had a store still in flight
	MaxLive     int   // largest queue length seen
}

// NewStoreOracle returns an oracle over a fresh core.
func NewStoreOracle(cfg Config, hier *mem.Hierarchy) *StoreOracle {
	return &StoreOracle{Core: NewCore(cfg, hier), ref: map[uint32]float64{}}
}

// Trace implements sim.Tracer.
func (o *StoreOracle) Trace(ev sim.Event) {
	c, word := o.Core, ev.Addr&^3
	if ev.Inst.Class() == isa.ClassLoad && o.Err == nil {
		dispatch := c.nextDispatch()
		want, wok := o.ref[word]
		wok = wok && want > dispatch
		got, gok := 0.0, false
		for _, e := range c.stores.entries {
			if e.word == word && e.complete > dispatch {
				if gok {
					o.Err = fmt.Errorf("pc %#x: two live entries for word %#x", ev.PC, word)
				}
				got, gok = e.complete, true
			}
		}
		if gok != wok || got != want && wok {
			o.Err = fmt.Errorf("pc %#x word %#x dispatch %v: queue has (%v, %t), map has (%v, %t)",
				ev.PC, word, dispatch, got, gok, want, wok)
		}
		o.Loads++
		if wok {
			o.Forwardable++
		}
	}
	c.Trace(ev)
	if ev.Inst.Class() == isa.ClassStore {
		last := c.stores.entries[len(c.stores.entries)-1]
		if last.word != word && o.Err == nil {
			o.Err = fmt.Errorf("pc %#x: store to %#x not queued last", ev.PC, word)
		}
		o.ref[word] = last.complete
	}
	o.MaxLive = max(o.MaxLive, len(c.stores.entries))
}
