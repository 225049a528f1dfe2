package stats

import "sort"

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Ratio is a hit/total style pair with a convenience rate.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Observe records one event that either hit or missed.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// AddHits records n hits (and n totals).
func (r *Ratio) AddHits(n uint64) { r.Hits += n; r.Total += n }

// AddMisses records n misses (n totals, no hits).
func (r *Ratio) AddMisses(n uint64) { r.Total += n }

// Rate returns Hits/Total, or 0 when empty.
func (r *Ratio) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Histogram is a fixed-bucket histogram over non-negative integer samples.
type Histogram struct {
	bounds []uint64 // ascending upper bounds; implicit +Inf last bucket
	counts []uint64
	n      uint64
	max    uint64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds. A sample x lands in the first bucket with x <= bound, or in the
// overflow bucket.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(x uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return x <= h.bounds[i] })
	h.counts[i]++
	h.n++
	if x > h.max {
		h.max = x
	}
}

// Quantile returns an upper-bound estimate of the q-quantile (0<=q<=1)
// using bucket upper bounds. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}
