package faults

import (
	"strings"
	"testing"
)

func TestSiteNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Sites() {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "site(") {
			t.Fatalf("site %d has no command-line name", int(s))
		}
		if seen[name] {
			t.Fatalf("duplicate site name %q", name)
		}
		seen[name] = true
		got, ok := SiteByName(name)
		if !ok || got != s {
			t.Fatalf("SiteByName(%q) = %v,%v", name, got, ok)
		}
	}
	if _, ok := SiteByName("nonsense"); ok {
		t.Fatal("unknown name resolved")
	}
}

// TestSiteApplyIsolated: applying one site must set exactly one rate and
// leave the rest of the Config zero, so campaign cells never bleed into
// each other.
func TestSiteApplyIsolated(t *testing.T) {
	for _, s := range Sites() {
		var c Config
		s.Apply(&c, 0.25)
		if !c.Enabled() {
			t.Fatalf("site %v: Apply(0.25) left config disabled", s)
		}
		rates := []float64{c.DRAMFlipRate, c.NoCDropRate, c.SPParityRate,
			c.DirFlipRate, c.LineBufFlipRate, c.ALUFlipRate}
		nonzero := 0
		for _, r := range rates {
			if r != 0 {
				nonzero++
				if r != 0.25 {
					t.Fatalf("site %v: wrong rate %g", s, r)
				}
			}
		}
		if nonzero != 1 {
			t.Fatalf("site %v: Apply set %d rates", s, nonzero)
		}
	}
}

func TestParseSiteConfig(t *testing.T) {
	c, err := ParseSiteConfig("directory:1e-3, linebuf:1e-4")
	if err != nil {
		t.Fatal(err)
	}
	if c.DirFlipRate != 1e-3 || c.LineBufFlipRate != 1e-4 {
		t.Fatalf("parsed rates wrong: %+v", c)
	}
	if c.DRAMFlipRate != 0 || c.ALUFlipRate != 0 {
		t.Fatalf("unlisted sites got rates: %+v", c)
	}
	if c, err := ParseSiteConfig("  "); err != nil || c.Enabled() {
		t.Fatalf("empty spec should disable: %+v, %v", c, err)
	}
	for _, bad := range []string{
		"directory",           // no rate
		"directory:",          // empty rate
		"mars:1e-3",           // unknown site
		"dram:1e-3,dram:1e-4", // duplicate
		"dram:2",              // rate > 1
		"dram:-0.1",           // negative
		"directory:NaN",       // not a probability
		"dram:1e-3,,noc:1e-3", // empty entry
		"dram:zero",           // non-numeric
	} {
		if _, err := ParseSiteConfig(bad); err == nil {
			t.Fatalf("ParseSiteConfig(%q) accepted", bad)
		}
	}
}

// TestNewSiteDrawsDeterministic: the directory, line-buffer, and ALU
// streams must replay identically for one (seed, rate) and diverge at
// Seed+1 — recovery re-executions run on fault seed seed+attempt and rely
// on drawing a fresh pattern.
func TestNewSiteDrawsDeterministic(t *testing.T) {
	cfg := Config{Seed: 3, DirFlipRate: 0.2, LineBufFlipRate: 0.2, ALUFlipRate: 0.2}
	type draw struct {
		a, b uint64
		ok   bool
	}
	sample := func(in *Injector) []draw {
		var out []draw
		for i := 0; i < 200; i++ {
			s, b, ok := in.DirFlip()
			out = append(out, draw{s, b, ok})
			out = append(out, draw{0, 0, in.LineBufFlip()})
			m, ok := in.ALUFlip()
			out = append(out, draw{m, 0, ok})
		}
		return out
	}
	same := func(a, b []draw) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	a, b := sample(New(cfg)), sample(New(cfg))
	if !same(a, b) {
		t.Fatal("same seed drew different site events")
	}
	next := cfg
	next.Seed++
	if same(a, sample(New(next))) {
		t.Fatal("Seed+1 replayed the Seed pattern")
	}
	ev := New(cfg)
	sample(ev)
	e := ev.Events()
	if e.DirFlips == 0 || e.LineBufFlips == 0 || e.ALUFlips == 0 {
		t.Fatalf("rate 0.2 over 200 draws fired nothing: %+v", e)
	}
	for _, m := range []uint64{e.DirFlips, e.LineBufFlips, e.ALUFlips} {
		if m > 200 {
			t.Fatalf("event count %d exceeds draw count", m)
		}
	}
}

func TestNilInjectorSiteDraws(t *testing.T) {
	var in *Injector
	if _, _, ok := in.DirFlip(); ok {
		t.Fatal("nil DirFlip fired")
	}
	if in.LineBufFlip() {
		t.Fatal("nil LineBufFlip fired")
	}
	if _, ok := in.ALUFlip(); ok {
		t.Fatal("nil ALUFlip fired")
	}
	in.NoteDirScrubRepairs(3)
	in.NoteLineBufGenCatch()
}

// FuzzParseSiteConfig: the -fault-site parser must never panic, and any
// spec it accepts must produce a Config that validates and survives a
// rate-preserving reformat.
func FuzzParseSiteConfig(f *testing.F) {
	f.Add("directory:1e-3,linebuf:1e-4")
	f.Add("dram:0.5")
	f.Add("pisc-alu:1,noc:0,sp-parity:1e-9")
	f.Add("")
	f.Add("dram:1e-3,dram:1e-3")
	f.Add("x:y:z,,:")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSiteConfig(spec)
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("accepted spec %q yields invalid config: %v", spec, verr)
		}
		if c.Seed != 0 {
			t.Fatalf("parser set the seed from %q", spec)
		}
	})
}
