package cpu

import (
	"strings"
	"testing"
)

// TestFingerprintGolden pins the exact fingerprint bytes of the CPU
// baselines. The experiments' simulation memo keys on them, so any drift
// (a reordered FU pool, a changed latency, a different format) silently
// invalidates every stored result and must be deliberate.
func TestFingerprintGolden(t *testing.T) {
	const boom = "cpu|ooo-4wide|4|4|128|6|12|fu1:4,1,true|fu2:2,3,true|fu3:1,12,false|fu6:2,1,true|fu7:2,1,true|fu8:2,3,true|fu9:2,5,true|fu10:1,16,false|2|true|2"
	cases := []struct {
		name string
		fp   func(*strings.Builder)
		want string
	}{
		{"DefaultBOOM", func(b *strings.Builder) { DefaultBOOM().Fingerprint(b) }, boom},
		{"SingleIssue", func(b *strings.Builder) { SingleIssue().Fingerprint(b) },
			"cpu|ooo-2wide|2|2|64|6|12|fu1:2,1,true|fu2:1,3,true|fu3:1,12,false|fu6:1,1,true|fu7:1,1,true|fu8:1,3,true|fu9:1,5,true|fu10:1,16,false|1|true|2"},
		{"DefaultMulticore", func(b *strings.Builder) { DefaultMulticore().Fingerprint(b) }, "mc|16|3000|2|" + boom},
	}
	for _, tc := range cases {
		var b strings.Builder
		tc.fp(&b)
		if got := b.String(); got != tc.want {
			t.Errorf("%s fingerprint:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
