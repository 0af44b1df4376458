package kernels

import (
	"testing"

	"mesa/internal/sim"
)

const seed = 42

// TestKernelsFunctional runs every kernel on the functional simulator and
// checks the verifier passes: the kernels and their Go-side oracles agree.
func TestKernelsFunctional(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prog, _ := k.MustProgram()
			m := k.NewMemory(seed)
			machine := sim.New(prog, m)
			if _, err := machine.Run(5_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := k.Verify(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelChunksCoverFullRange verifies parallel kernels' chunked programs
// together produce the same result as the full-range program.
func TestKernelChunksCoverFullRange(t *testing.T) {
	for _, k := range All() {
		if !k.Parallel {
			continue
		}
		k := k
		t.Run(k.Name, func(t *testing.T) {
			const chunks = 4
			m := k.NewMemory(seed)
			for c := 0; c < chunks; c++ {
				prog, _ := k.MustChunkProgram(c, chunks)
				machine := sim.New(prog, m)
				if _, err := machine.Run(5_000_000); err != nil {
					t.Fatalf("chunk %d: %v", c, err)
				}
			}
			if err := k.Verify(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelLoopsDetectable checks each kernel's hot loop has the shape the
// detector expects: a backward branch closing the region at the loop start.
func TestKernelLoopsDetectable(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prog, loopStart := k.MustProgram()
			if loopStart == 0 {
				t.Fatal("no loop start")
			}
			body := prog.LoopBody(loopStart)
			if body == nil {
				t.Fatal("no backward branch targeting the loop start")
			}
			size := len(body)
			if size < 5 {
				t.Errorf("loop body suspiciously small: %d instructions", size)
			}
			t.Logf("%s: %d-instruction loop body", k.Name, size)
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("nn"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names/All mismatch")
	}
}
