package mapping_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
)

// BenchmarkAnnealMap measures one greedy+anneal Map of nn's hot loop, the
// greedy seed included: on M-128, and on the time-shared 4×4 backend with
// four instructions per unit.
func BenchmarkAnnealMap(b *testing.B) {
	k, err := kernels.ByName("nn")
	if err != nil {
		b.Fatal(err)
	}
	anneal, err := mapping.ByName("greedy+anneal")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		be    *accel.Config
		share int
	}{{accel.M128(), 1}, {sharedBackend(), 4}} {
		b.Run(c.be.Name, func(b *testing.B) {
			l := hotLoop(b, k)
			o := mapping.DefaultOptions()
			o.TimeShare = c.share
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := anneal.Map(l, c.be, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
