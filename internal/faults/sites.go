package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Site names one injection site of the campaign engine and the
// -fault-site command-line syntax.
type Site int

const (
	// SiteDRAM injects DRAM read bit flips behind SECDED ECC.
	SiteDRAM Site = iota
	// SiteNoC injects interconnect message drops with bounded retry.
	SiteNoC
	// SiteSPParity injects scratchpad parity errors (graceful degrade).
	SiteSPParity
	// SiteDirectory injects coherence-directory probe-table tag flips.
	SiteDirectory
	// SiteLineBuf injects per-core same-line memo corruption.
	SiteLineBuf
	// SiteALU injects PISC ALU transient result flips (functional).
	SiteALU

	numSites
)

// Sites lists every injection site in declaration order.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// String returns the site's command-line name.
func (s Site) String() string {
	switch s {
	case SiteDRAM:
		return "dram"
	case SiteNoC:
		return "noc"
	case SiteSPParity:
		return "sp-parity"
	case SiteDirectory:
		return "directory"
	case SiteLineBuf:
		return "linebuf"
	case SiteALU:
		return "pisc-alu"
	}
	return fmt.Sprintf("site(%d)", int(s))
}

// SiteByName resolves a command-line site name.
func SiteByName(name string) (Site, bool) {
	for _, s := range Sites() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Apply sets this site's rate on a Config, leaving every other site
// untouched.
func (s Site) Apply(c *Config, rate float64) {
	switch s {
	case SiteDRAM:
		c.DRAMFlipRate = rate
	case SiteNoC:
		c.NoCDropRate = rate
	case SiteSPParity:
		c.SPParityRate = rate
	case SiteDirectory:
		c.DirFlipRate = rate
	case SiteLineBuf:
		c.LineBufFlipRate = rate
	case SiteALU:
		c.ALUFlipRate = rate
	}
}

// ParseSiteConfig parses the -fault-site syntax: a comma-separated list
// of "site:rate" pairs, e.g. "directory:1e-3,linebuf:1e-4". Site names
// are those of Site.String (dram, noc, sp-parity, directory, linebuf,
// pisc-alu). The returned Config carries only the listed rates; the
// caller sets Seed. The empty string yields a zero (disabled) Config.
func ParseSiteConfig(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	seen := make(map[Site]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Config{}, fmt.Errorf("faults: empty site entry in %q", spec)
		}
		name, rateStr, ok := strings.Cut(part, ":")
		if !ok {
			return Config{}, fmt.Errorf("faults: site entry %q is not site:rate", part)
		}
		site, ok := SiteByName(strings.TrimSpace(name))
		if !ok {
			return Config{}, fmt.Errorf("faults: unknown site %q (want one of %s)",
				strings.TrimSpace(name), siteNames())
		}
		if seen[site] {
			return Config{}, fmt.Errorf("faults: site %q listed twice", site)
		}
		seen[site] = true
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad rate %q for site %q", rateStr, site)
		}
		if rate < 0 || rate > 1 {
			return Config{}, fmt.Errorf("faults: rate %g for site %q outside [0,1]", rate, site)
		}
		site.Apply(&c, rate)
	}
	return c, nil
}

func siteNames() string {
	names := make([]string, 0, numSites)
	for _, s := range Sites() {
		names = append(names, s.String())
	}
	return strings.Join(names, ", ")
}
