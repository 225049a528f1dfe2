package core

import (
	"strings"
	"testing"
)

// TestCanonicalKeyStable: equal configs encode equally, and the stock
// configurations all encode without panicking — the guard that keeps
// Config a pure value type as fields are added.
func TestCanonicalKeyStable(t *testing.T) {
	for _, cfg := range []Config{Baseline(), OMEGA()} {
		a, b := cfg.CanonicalKey(), cfg.CanonicalKey()
		if a != b {
			t.Fatalf("%s: CanonicalKey not deterministic", cfg.Name)
		}
		if a == "" {
			t.Fatalf("%s: empty canonical key", cfg.Name)
		}
	}
	b, om := ScaledPair(1<<9, 8, 0.20)
	if b.CanonicalKey() == om.CanonicalKey() {
		t.Fatal("baseline and omega scaled configs encode identically")
	}
}

// TestCanonicalKeyDistinguishesFields: changing any knob — top-level,
// nested DRAM, nested fault config including the seed — changes the key.
func TestCanonicalKeyDistinguishesFields(t *testing.T) {
	base := Baseline()
	ref := base.CanonicalKey()
	mutations := map[string]func(*Config){
		"Name":              func(c *Config) { c.Name = "other" },
		"NumCores":          func(c *Config) { c.NumCores++ },
		"DisableLineBuffer": func(c *Config) { c.DisableLineBuffer = true },
		"SPResidentCap":     func(c *Config) { c.SPResidentCap = 7 },
		"Coverage knob":     func(c *Config) { c.LLCPollution = 0.5 },
		"DRAM nested":       func(c *Config) { c.DRAM.ClosePage = !c.DRAM.ClosePage },
		"Fault rate":        func(c *Config) { c.Faults.DRAMFlipRate = 1e-4 },
		"Fault seed":        func(c *Config) { c.Faults.Seed = 99 },
	}
	for name, mut := range mutations {
		cfg := base
		mut(&cfg)
		if cfg.CanonicalKey() == ref {
			t.Errorf("mutation %q did not change the canonical key", name)
		}
	}
}

// TestCanonicalKeySelfDescribing: the encoding names fields, so keys
// from different schema generations can never collide silently.
func TestCanonicalKeySelfDescribing(t *testing.T) {
	k := Baseline().CanonicalKey()
	for _, field := range []string{"Name=", "NumCores=", "DRAM=", "Faults=", "DisableLineBuffer="} {
		if !strings.Contains(k, field) {
			t.Errorf("canonical key missing %q:\n%s", field, k)
		}
	}
}
