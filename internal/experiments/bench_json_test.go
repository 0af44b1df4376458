package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// encoderJSON is the reference WriteJSON reproduces: encoding/json's
// Encoder with two-space indentation.
func encoderJSON(s *BenchSnapshot) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(s)
	return buf.String(), err
}

func checkWriteJSON(t *testing.T, what string, s *BenchSnapshot) {
	t.Helper()
	want, err := encoderJSON(s)
	if err != nil {
		t.Fatalf("%s: reference encoder: %v", what, err)
	}
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.String() != want {
		t.Fatalf("%s: WriteJSON differs from the Encoder:\n got %q\nwant %q", what, got.String(), want)
	}
}

// TestWriteJSONMatchesEncoder: the hand-written snapshot writer produces
// the Encoder's bytes on the real snapshot, on names that need escaping and
// on the float forms where encoding/json switches notation or sign.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	if !testing.Short() {
		real, err := CollectBench()
		if err != nil {
			t.Fatal(err)
		}
		real.WallSeconds = 3.25
		checkWriteJSON(t, "the suite snapshot", real)
	}

	names := []string{
		"", "kernel.nn.m128.speedup", `quote"d`, `back\slash`, "<html>&amp;", "tab\there",
		"nl\ncr\r", "ctl\x00\x01\x1f\x7f", "bs\b ff\f", "line\u2028sep\u2029", "bad\xff\xfeutf8",
		"naïve", "日本",
	}
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, -3.5e-9, 1e20, 1e21, -1e21,
		123456789.125, 5e-324, math.MaxFloat64, 1e-100, 2.5e-10,
	}
	var ms []BenchMetric
	for i, n := range names {
		ms = append(ms, BenchMetric{Name: n, Value: values[i%len(values)], HigherIsBetter: i%2 == 0})
	}
	for i, v := range values {
		ms = append(ms, BenchMetric{Name: "v", Value: v, HigherIsBetter: i%3 == 0})
	}
	r := rand.New(rand.NewPCG(9, 10))
	for range 2000 {
		v := r.NormFloat64() * math.Pow(10, float64(r.IntN(60)-30))
		ms = append(ms, BenchMetric{Name: "r", Value: v})
	}
	for i, wall := range values {
		checkWriteJSON(t, "synthetic", &BenchSnapshot{SchemaVersion: i - 3, WallSeconds: wall, Metrics: ms})
	}
	checkWriteJSON(t, "nil metrics", &BenchSnapshot{SchemaVersion: 1})
	checkWriteJSON(t, "empty metrics", &BenchSnapshot{SchemaVersion: 1, Metrics: []BenchMetric{}})
	checkWriteJSON(t, "one metric", snap(BenchMetric{Name: "a", Value: 2}))
}

// TestWriteJSONRefusesNonFinite: NaN and ±Inf, as a metric or as the wall
// time, fail with the Encoder's error and leave the writer empty.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, s := range []*BenchSnapshot{
			snap(BenchMetric{Name: "a", Value: 1}, BenchMetric{Name: "b", Value: v}),
			{SchemaVersion: 1, WallSeconds: v, Metrics: []BenchMetric{{Name: "a", Value: 1}}},
		} {
			_, want := encoderJSON(s)
			var got bytes.Buffer
			err := s.WriteJSON(&got)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("WriteJSON(%v) error %v, the Encoder's %v", v, err, want)
			}
			if got.Len() != 0 {
				t.Errorf("WriteJSON(%v) wrote %q before failing", v, got.String())
			}
		}
	}
}

// TestWriteJSONAllocs: the snapshot is written from one buffer, where the
// Encoder allocated about twenty times per snapshot; an encoding/json
// round trip coming back crosses the bound.
func TestWriteJSONAllocs(t *testing.T) {
	var ms []BenchMetric
	for i := range 400 {
		ms = append(ms, BenchMetric{Name: "kernel.streamcluster.m512.energy_eff." + strconv.Itoa(i), Value: 1234.5678e-3 * float64(i)})
	}
	s := snap(ms...)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := s.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("WriteJSON allocates %v times per snapshot, want 1", allocs)
	}
}
