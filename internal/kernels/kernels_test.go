package kernels

import (
	"sync"
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
			if err := k.Verify(m, seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyRejectsFlippedOutput checks that no oracle is vacuous: after a
// functional run, flipping the first word the program wrote makes Verify
// fail for every kernel.
func TestVerifyRejectsFlippedOutput(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			prog, _ := k.MustProgram()
			m := k.NewMemory(seed)
			if _, err := sim.New(prog, m).Run(5_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			written := m.Diff(k.NewMemory(seed), 1)
			if len(written) == 0 {
				t.Fatal("the program wrote nothing")
			}
			addr := written[0] &^ 3
			m.StoreWord(addr, ^m.LoadWord(addr))
			if err := k.Verify(m, seed); err == nil {
				t.Fatalf("Verify accepts the output with the word at %#x flipped", addr)
			}
		})
	}
}

// TestVerifyInterleavedSeeds runs two seeds on each shared suite kernel at
// once, both memories generated before either run, and checks each against
// its own seed: no kernel carries state from NewMemory to Verify.
func TestVerifyInterleavedSeeds(t *testing.T) {
	seeds := []int64{1, 2}
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			prog, _ := k.MustProgram()
			errs := make([]error, len(seeds))
			var generated, done sync.WaitGroup
			generated.Add(len(seeds))
			done.Add(len(seeds))
			for i, s := range seeds {
				go func() {
					defer done.Done()
					m := k.NewMemory(s)
					generated.Done()
					generated.Wait()
					if _, err := sim.New(prog, m).Run(5_000_000); err != nil {
						errs[i] = err
						return
					}
					errs[i] = k.Verify(m, s)
				}()
			}
			done.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("seed %d: %v", seeds[i], err)
				}
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
				prog, _, err := k.ChunkProgram(c, chunks)
				if err != nil {
					t.Fatalf("chunk %d: %v", c, err)
				}
				machine := sim.New(prog, m)
				if _, err := machine.Run(5_000_000); err != nil {
					t.Fatalf("chunk %d: %v", c, err)
				}
			}
			if err := k.Verify(m, seed); err != nil {
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

// TestSuiteLookupAllocs checks that lookups read the one suite table instead
// of building kernels.
func TestSuiteLookupAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("particlefilter") }); n != 0 {
		t.Errorf("ByName: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = All() }); n > 1 {
		t.Errorf("All: %v allocations, want at most 1", n)
	}
	a, b := All(), All()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("All()[%d] is a new %s each call", i, a[i].Name)
		}
	}
}
