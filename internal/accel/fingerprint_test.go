package accel

import (
	"reflect"
	"strings"
	"testing"

	"mesa/internal/isa"
	"mesa/internal/noc"
)

func configPrint(c *Config) string { return string(c.AppendFingerprint(nil)) }

// configMutations perturbs each Config field in turn; a name's first word
// is the field it perturbs (TestConfigFingerprintFieldCensus checks that
// every field has one).
var configMutations = []struct {
	name   string
	mutate func(c *Config)
}{
	{"Name", func(c *Config) { c.Name = "M-128-variant" }},
	{"Rows", func(c *Config) { c.Rows++ }},
	{"Cols", func(c *Config) { c.Cols++ }},
	{"EdgeDepth", func(c *Config) { c.EdgeDepth++ }},
	{"FPSlice", func(c *Config) { c.FPSlice++ }},
	{"Interconnect type", func(c *Config) { c.Interconnect = noc.DefaultRowSlice() }},
	{"Interconnect value", func(c *Config) {
		hr := noc.DefaultHalfRing()
		hr.RouterLat++
		c.Interconnect = hr
	}},
	{"NoCLanesPerRow", func(c *Config) { c.NoCLanesPerRow++ }},
	{"MemPorts", func(c *Config) { c.MemPorts++ }},
	{"OpLat", func(c *Config) { c.OpLat[isa.ClassALU]++ }},
	{"LoadLatEstimate", func(c *Config) { c.LoadLatEstimate++ }},
	{"BusLat", func(c *Config) { c.BusLat++ }},
	{"EnablePrefetch", func(c *Config) { c.EnablePrefetch = !c.EnablePrefetch }},
	{"EnableVectorization", func(c *Config) { c.EnableVectorization = !c.EnableVectorization }},
	{"ClockGHz", func(c *Config) { c.ClockGHz++ }},
}

// TestConfigFingerprintFieldCensus: every Config field has an entry in
// configMutations, so a field added later cannot be left out of the
// hand-written fingerprint unnoticed.
func TestConfigFingerprintFieldCensus(t *testing.T) {
	mutated := map[string]bool{}
	for _, m := range configMutations {
		mutated[strings.Fields(m.name)[0]] = true
	}
	typ := reflect.TypeOf(Config{})
	for i := range typ.NumField() {
		if f := typ.Field(i).Name; !mutated[f] {
			t.Errorf("Config.%s has no entry in configMutations", f)
		}
	}
}

// TestConfigFingerprintDistinguishesEveryField: every Config field is
// simulation-relevant, so perturbing any one of them must change the
// fingerprint — a collision would let the memo cache (and the mesad response
// store) serve one configuration's timing for another.
func TestConfigFingerprintDistinguishesEveryField(t *testing.T) {
	prints := map[string]string{"base": configPrint(M128())}
	for _, m := range configMutations {
		c := M128()
		m.mutate(c)
		fp := configPrint(c)
		for other, ofp := range prints {
			if fp == ofp {
				t.Errorf("mutating %s collides with %s: %s", m.name, other, fp)
			}
		}
		prints[m.name] = fp
	}

	// Determinism: the same config always prints the same bytes.
	if configPrint(M128()) != prints["base"] {
		t.Error("fingerprint is not deterministic for identical configs")
	}
}

// TestConfigFingerprintGolden pins the fingerprint bytes of the paper's
// three configurations and of variants with every other interconnect and
// fractional floats. The memo and mesad's response store key on these
// bytes, so any rewrite of AppendFingerprint must reproduce them exactly.
func TestConfigFingerprintGolden(t *testing.T) {
	variant := M128()
	variant.Name = "M-128 rowslice"
	variant.Interconnect = noc.DefaultRowSlice()
	variant.OpLat[isa.ClassFPMul] = 5.25
	variant.LoadLatEstimate = 3.5
	variant.ClockGHz = 1.5
	variant.EnableVectorization = true
	mesh, ideal := M64(), M64()
	mesh.Interconnect, ideal.Interconnect = noc.Mesh{}, noc.Ideal{}

	cases := []struct {
		cfg  *Config
		want string
	}{
		{M64(), "accel|M-64|16|4|2|2|noc.HalfRing{SliceSize:4 LocalReach:1 InjectLat:2 RouterLat:1}|2|6|[0 1 3 12 0 0 1 1 3 5 16 0]|3|8|true|false|2"},
		{M128(), "accel|M-128|16|8|2|2|noc.HalfRing{SliceSize:4 LocalReach:1 InjectLat:2 RouterLat:1}|2|8|[0 1 3 12 0 0 1 1 3 5 16 0]|3|8|true|false|2"},
		{M512(), "accel|M-512|64|8|2|2|noc.HalfRing{SliceSize:4 LocalReach:1 InjectLat:2 RouterLat:1}|2|16|[0 1 3 12 0 0 1 1 3 5 16 0]|3|8|true|false|2"},
		{variant, "accel|M-128 rowslice|16|8|2|2|noc.RowSlice{InRow:1 CrossRow:3}|2|8|[0 1 3 12 0 0 1 1 3 5.25 16 0]|3.5|8|true|true|1.5"},
		{mesh, "accel|M-64|16|4|2|2|noc.Mesh{}|2|6|[0 1 3 12 0 0 1 1 3 5 16 0]|3|8|true|false|2"},
		{ideal, "accel|M-64|16|4|2|2|noc.Ideal{}|2|6|[0 1 3 12 0 0 1 1 3 5 16 0]|3|8|true|false|2"},
	}
	for _, tc := range cases {
		if got := configPrint(tc.cfg); got != tc.want {
			t.Errorf("%s fingerprint:\n got %q\nwant %q", tc.cfg.Name, got, tc.want)
		}
	}
}
