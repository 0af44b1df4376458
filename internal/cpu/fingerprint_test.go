package cpu

import (
	"reflect"
	"slices"
	"testing"

	"mesa/internal/isa"
)

// TestFingerprintGolden pins the exact fingerprint bytes of the CPU
// baselines. The experiments' simulation memo keys on them, so any drift
// (a reordered FU pool, a changed latency, a different format) silently
// invalidates every stored result and must be deliberate.
func TestFingerprintGolden(t *testing.T) {
	const boom = "cpu|ooo-4wide|4|4|128|6|12|fu1:4,1,true|fu2:2,3,true|fu3:1,12,false|fu6:2,1,true|fu7:2,1,true|fu8:2,3,true|fu9:2,5,true|fu10:1,16,false|2|true|2"
	cases := []struct {
		name string
		fp   func([]byte) []byte
		want string
	}{
		{"DefaultBOOM", DefaultBOOM().AppendFingerprint, boom},
		{"SingleIssue", SingleIssue().AppendFingerprint,
			"cpu|ooo-2wide|2|2|64|6|12|fu1:2,1,true|fu2:1,3,true|fu3:1,12,false|fu6:1,1,true|fu7:1,1,true|fu8:1,3,true|fu9:1,5,true|fu10:1,16,false|1|true|2"},
		{"DefaultMulticore", DefaultMulticore().AppendFingerprint, "mc|16|3000|2|" + boom},
	}
	for _, tc := range cases {
		if got := string(tc.fp(nil)); got != tc.want {
			t.Errorf("%s fingerprint:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// configMutations and multicoreMutations perturb each Config and
// MulticoreConfig field in turn, named by the field.
var configMutations = []struct {
	name   string
	mutate func(c *Config)
}{
	{"Name", func(c *Config) { c.Name = "ooo-4wide-variant" }},
	{"FetchWidth", func(c *Config) { c.FetchWidth++ }},
	{"IssueWidth", func(c *Config) { c.IssueWidth++ }},
	{"ROBSize", func(c *Config) { c.ROBSize++ }},
	{"DecodeToIssue", func(c *Config) { c.DecodeToIssue++ }},
	{"MispredictPenalty", func(c *Config) { c.MispredictPenalty++ }},
	{"FUs", func(c *Config) { c.FUs[isa.ClassMul]++ }},
	{"MemPorts", func(c *Config) { c.MemPorts++ }},
	{"StridePrefetcher", func(c *Config) { c.StridePrefetcher = !c.StridePrefetcher }},
	{"ClockGHz", func(c *Config) { c.ClockGHz += 0.5 }},
}

var multicoreMutations = []struct {
	name   string
	mutate func(mc *MulticoreConfig)
}{
	{"Core", func(mc *MulticoreConfig) { mc.Core.ROBSize++ }},
	{"Cores", func(mc *MulticoreConfig) { mc.Cores++ }},
	{"ForkJoinOverhead", func(mc *MulticoreConfig) { mc.ForkJoinOverhead += 0.5 }},
	{"SampleChunks", func(mc *MulticoreConfig) { mc.SampleChunks++ }},
}

// TestFingerprintDistinguishesEveryField: every Config and MulticoreConfig
// field is timing-relevant, so perturbing any one must change the
// fingerprint, or the memo would serve one baseline's timing for another.
func TestFingerprintDistinguishesEveryField(t *testing.T) {
	prints := map[string]string{"base": string(DefaultBOOM().AppendFingerprint(nil))}
	record := func(name, fp string) {
		for other, ofp := range prints {
			if fp == ofp {
				t.Errorf("mutating %s collides with %s: %s", name, other, fp)
			}
		}
		prints[name] = fp
	}
	for _, m := range configMutations {
		c := DefaultBOOM()
		m.mutate(&c)
		record(m.name, string(c.AppendFingerprint(nil)))
	}
	record("multicore", string(DefaultMulticore().AppendFingerprint(nil)))
	for _, m := range multicoreMutations {
		mc := DefaultMulticore()
		m.mutate(&mc)
		record("multicore "+m.name, string(mc.AppendFingerprint(nil)))
	}
}

// TestFingerprintFieldCensus: every Config and MulticoreConfig field has a
// mutation, so a field added later cannot be left out of the hand-written
// fingerprint unnoticed.
func TestFingerprintFieldCensus(t *testing.T) {
	census := func(typ reflect.Type, names []string) {
		t.Helper()
		for i := range typ.NumField() {
			if f := typ.Field(i).Name; !slices.Contains(names, f) {
				t.Errorf("%s.%s has no mutation", typ.Name(), f)
			}
		}
	}
	var names []string
	for _, m := range configMutations {
		names = append(names, m.name)
	}
	census(reflect.TypeOf(Config{}), names)
	names = names[:0]
	for _, m := range multicoreMutations {
		names = append(names, m.name)
	}
	census(reflect.TypeOf(MulticoreConfig{}), names)
}
