package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/experiments"
	"mesa/internal/isa"
	"mesa/internal/noc"
)

// storeKeyCase is one request whose response-store key is pinned.
type storeKeyCase struct {
	name string
	req  Request
}

// storeKeyCases spans what the store key depends on: a parallel and a
// serial kernel at one and sixteen cores (a serial kernel resolves to one
// core, so its two cases share a key), every backend, two strategies, and
// a raw program at an explicit and at the default base.
func storeKeyCases() []storeKeyCase {
	var cases []storeKeyCase
	for _, kernel := range []string{"nn", "bfs"} {
		for _, cores := range []int{1, 16} {
			for _, backend := range []string{"M-64", "M-128", "M-512"} {
				for _, mapper := range []string{"greedy", "congestion"} {
					cases = append(cases, storeKeyCase{
						name: fmt.Sprintf("%s/cores%d/%s/%s", kernel, cores, backend, mapper),
						req:  Request{Kernel: kernel, Cores: cores, Backend: backend, Mapper: mapper},
					})
				}
			}
		}
	}
	// addi x5,x0,100 ; addi x6,x6,1 ; addi x5,x5,-1 ; bne x5,x0,-8 ; ecall
	words := []uint32{0x06400293, 0x00130313, 0xfff28293, 0xfe029ce3, 0x00000073}
	cases = append(cases,
		storeKeyCase{"raw/base0x1000", Request{Program: &RawProgram{Base: 0x1000, Words: words}}},
		storeKeyCase{"raw/default-base/M-512/modulo", Request{Program: &RawProgram{Words: words}, Backend: "M-512", Mapper: "modulo", Cores: 8}},
	)
	return cases
}

// TestStoreKeyGolden pins the hex of the response-store key. DiskStore
// entries outlive the process, so a key that drifts orphans every stored
// response; any rewrite of fingerprint must reproduce these exactly.
func TestStoreKeyGolden(t *testing.T) {
	want := map[string]string{
		"nn/cores1/M-64/greedy":         "1c64367066f5ed34747ba2edf6d01672bb4c1d8d74f06c3d032f6e5e8985c34a",
		"nn/cores1/M-64/congestion":     "5f4bc810a6175e900df6936d1964f0cecd8784cc36531cb5db9c430bb7c9f56c",
		"nn/cores1/M-128/greedy":        "e1b0deab32d2eeed9484ec8807e91de656d71e199f4017fa1b780dcbe17a6756",
		"nn/cores1/M-128/congestion":    "de59b8ff9634498729d6e760a7c176570226c96dd96c410d309701bbae20d8f4",
		"nn/cores1/M-512/greedy":        "c24901bf676fd1042d3503aaac2635724c2fbd903410b5765e8ee187dfda84a8",
		"nn/cores1/M-512/congestion":    "5758f0cbd80248cbbd1428aad0ba6527c9c04e79f2946f892032878ddbdb729a",
		"nn/cores16/M-64/greedy":        "6a55db07b09fac9e2bcfe4824fefb4770b0c7cbd15c19a37e7bb594694a645f0",
		"nn/cores16/M-64/congestion":    "3658427d6b3030193182fd042264761edadec7a5bc31d2f511ae91c4c8122e38",
		"nn/cores16/M-128/greedy":       "34d96ad6789cc7ee0d251845dd6ce8c9455d5590e6305cbd8ac1a54d67b1b7b0",
		"nn/cores16/M-128/congestion":   "12df4bcfc2f9a2a64c4ddd098a5001df66fe6ed65c59bcb159d98223db4c5eb9",
		"nn/cores16/M-512/greedy":       "7690ee7ead44bb7820988073435cc67efb9c6503a6281fdff21feb2418fe990e",
		"nn/cores16/M-512/congestion":   "5ad9e26d58d7ef63cbe1db7fbd6fccfdd552c901b8ee0a03bc97d62b1917c5fa",
		"bfs/cores1/M-64/greedy":        "1526d3dc4cab8e8ffa13255f7cf67a2c8ce4aa9551aab58a862765428128c7a2",
		"bfs/cores1/M-64/congestion":    "a553e9687ef10bdbcd71141e7ef2cef5ed4c6c07925043b2132822febbafe113",
		"bfs/cores1/M-128/greedy":       "db70c903f2322b172e58771e9a8c55024875cfa0e6ce1586ae845aa078163489",
		"bfs/cores1/M-128/congestion":   "c67dcdc0e78addb4ce73e2b6317b6cd59527231a63f63f968cf69d87e33e732b",
		"bfs/cores1/M-512/greedy":       "deb02d5932fea2a4f295ffb69ecbf26cf9f0326e7eaae238c6a58e49e33bf8b7",
		"bfs/cores1/M-512/congestion":   "10916065c26eda4d256872d5c9ae9ba8c0075daed93867fad248ebc248fe2c32",
		"bfs/cores16/M-64/greedy":       "1526d3dc4cab8e8ffa13255f7cf67a2c8ce4aa9551aab58a862765428128c7a2",
		"bfs/cores16/M-64/congestion":   "a553e9687ef10bdbcd71141e7ef2cef5ed4c6c07925043b2132822febbafe113",
		"bfs/cores16/M-128/greedy":      "db70c903f2322b172e58771e9a8c55024875cfa0e6ce1586ae845aa078163489",
		"bfs/cores16/M-128/congestion":  "c67dcdc0e78addb4ce73e2b6317b6cd59527231a63f63f968cf69d87e33e732b",
		"bfs/cores16/M-512/greedy":      "deb02d5932fea2a4f295ffb69ecbf26cf9f0326e7eaae238c6a58e49e33bf8b7",
		"bfs/cores16/M-512/congestion":  "10916065c26eda4d256872d5c9ae9ba8c0075daed93867fad248ebc248fe2c32",
		"raw/base0x1000":                "c62aeaca7ce7bd87e830444f64458aecd4ca727e2e04532e3be56feb57e05d08",
		"raw/default-base/M-512/modulo": "6cdbcbf1a808396deaf0298bb6c8620af5abcc3fcb49b13644c28b3cc870cc8a",
	}
	s := New(Config{})
	cases := storeKeyCases()
	if len(cases) != len(want) {
		t.Errorf("%d cases, %d golden keys", len(cases), len(want))
	}
	for _, c := range cases {
		n, e := s.normalize(&c.req)
		if e != nil {
			t.Fatalf("%s: %v", c.name, e)
		}
		if got := n.fingerprint(); got != want[c.name] {
			t.Errorf("%s store key:\n got %s\nwant %s", c.name, got, want[c.name])
		}
	}
}

// refFingerprint is the fmt-based store key the append code replaced, kept
// verbatim as the reference TestStoreKeyMatchesReference compares against.
func refFingerprint(n *normalized) string {
	h := sha256.New()
	fmt.Fprintf(h, "mesad|v%d|seed%d|steps%d|", SchemaVersion, experiments.Seed, experiments.MaxSteps)
	if n.kernel != nil {
		fmt.Fprintf(h, "kernel|%s|%d|%t|", n.kernel.Name, n.kernel.N, n.kernel.Parallel)
	} else {
		fmt.Fprintf(h, "raw|base%d|", n.prog.Base)
		var word [4]byte
		for _, in := range n.prog.Insts {
			enc, err := isa.Encode(in)
			if err != nil {
				fmt.Fprintf(h, "raw%+v|", in)
				continue
			}
			binary.LittleEndian.PutUint32(word[:], enc)
			h.Write(word[:])
		}
	}
	fmt.Fprintf(h, "|map%s|cores%d|", n.mapper.Name(), n.cores)
	refAccel(h, n.backend)
	return hex.EncodeToString(h.Sum(nil))
}

func refAccel(w io.Writer, c *accel.Config) {
	fmt.Fprintf(w, "accel|%s|%d|%d|%d|%d|%T%+v|%d|%d|%v|%g|%d|%t|%t|%g",
		c.Name, c.Rows, c.Cols, c.EdgeDepth, c.FPSlice,
		c.Interconnect, c.Interconnect,
		c.NoCLanesPerRow, c.MemPorts, c.OpLat, c.LoadLatEstimate, c.BusLat,
		c.EnablePrefetch, c.EnableVectorization, c.ClockGHz)
}

// TestStoreKeyMatchesReference compares the store key with the fmt
// reference for every pinned request, and again with each backend swapped
// for variants carrying edge floats and other interconnects.
func TestStoreKeyMatchesReference(t *testing.T) {
	variants := []func(c *accel.Config){
		func(c *accel.Config) {},
		func(c *accel.Config) {
			c.OpLat[isa.ClassFPMul] = math.Copysign(0, -1)
			c.LoadLatEstimate, c.ClockGHz = 1e6, 0.5
		},
		func(c *accel.Config) {
			c.Interconnect = noc.DefaultRowSlice()
			c.OpLat[isa.ClassALU] = math.NaN()
			c.LoadLatEstimate, c.ClockGHz = 999999, math.Inf(-1)
		},
		func(c *accel.Config) { c.Interconnect, c.ClockGHz = noc.Mesh{}, 1e21 },
		func(c *accel.Config) { c.Interconnect, c.ClockGHz = noc.Ideal{}, 1e-5 },
	}
	s := New(Config{})
	for _, c := range storeKeyCases() {
		n, e := s.normalize(&c.req)
		if e != nil {
			t.Fatalf("%s: %v", c.name, e)
		}
		for i, vary := range variants {
			be := *n.backend
			vary(&be)
			v := *n
			v.backend = &be
			if got, want := v.fingerprint(), refFingerprint(&v); got != want {
				t.Errorf("%s variant %d store key:\n got %s\nwant %s", c.name, i, got, want)
			}
		}
	}
}
