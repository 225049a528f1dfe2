package stats

import (
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 equal values", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("zero seed produced only %d distinct values", len(seen))
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRandFloat64Uniformish(t *testing.T) {
	r := NewRand(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("got %d, want 42", c.Value())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	r.Observe(true)
	r.Observe(false)
	r.Observe(true)
	r.AddHits(2)
	r.AddMisses(3)
	if r.Hits != 4 || r.Total != 8 {
		t.Fatalf("got %d/%d", r.Hits, r.Total)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, x := range []uint64{1, 5, 10, 11, 100, 500, 5000} {
		h.Observe(x)
	}
	if h.n != 7 {
		t.Fatalf("count %d", h.n)
	}
	if h.max != 5000 {
		t.Fatalf("max %d", h.max)
	}
	// <=10: {1,5,10} ; <=100: {11,100} ; <=1000: {500} ; overflow: {5000}
	want := []uint64{3, 2, 1, 1}
	if len(h.counts) != len(want) {
		t.Fatalf("bucket shape: %v", h.counts)
	}
	for i := range want {
		if h.counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, h.counts[i], want[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8, 16)
	for i := uint64(0); i < 100; i++ {
		h.Observe(i % 10)
	}
	if q := h.Quantile(0.5); q < 4 || q > 8 {
		t.Fatalf("median estimate %d", q)
	}
	if h.Quantile(1.0) < 8 {
		t.Fatalf("p100 %d", h.Quantile(1.0))
	}
	empty := NewHistogram(1)
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-ascending bounds")
		}
	}()
	NewHistogram(5, 5)
}
