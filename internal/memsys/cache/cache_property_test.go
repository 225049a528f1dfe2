package cache

import (
	"math/bits"
	"testing"
	"testing/quick"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// refCache is an executable specification of the cache: a map-based
// set-associative LRU, with pins, invalidation and the same-line memo,
// used to cross-check the real implementation operation by operation.
type refCache struct {
	ways    int
	numSets uint64
	sets    map[uint64][]refLine // set -> MRU-ordered lines

	// memo is the line the same-line memo is armed for, when memoArmed.
	memo      memsys.Addr
	memoArmed bool

	reads, writes         stats.Ratio
	evictions, writebacks uint64
}

type refLine struct {
	tag    uint64
	dirty  bool
	pinned bool
}

func newRefCache(numSets, ways int) *refCache {
	return &refCache{
		ways:    ways,
		numSets: uint64(numSets),
		sets:    make(map[uint64][]refLine),
	}
}

func (r *refCache) locate(a memsys.Addr) (set, tag uint64) {
	la := uint64(memsys.LineAddr(a)) / memsys.LineSize
	return la % r.numSets, la / r.numSets
}

// find returns a's set and its index in the set's MRU order, or -1.
func (r *refCache) find(a memsys.Addr) (set uint64, i int) {
	set, tag := r.locate(a)
	for i, l := range r.sets[set] {
		if l.tag == tag {
			return set, i
		}
	}
	return set, -1
}

// touch moves line i of set to the MRU position.
func (r *refCache) touch(set uint64, i int) {
	lines := r.sets[set]
	l := lines[i]
	lines = append(lines[:i], lines[i+1:]...)
	r.sets[set] = append([]refLine{l}, lines...)
}

// remove deletes line i of set, disarming the memo if it pointed there.
func (r *refCache) remove(set uint64, i int) refLine {
	lines := r.sets[set]
	l := lines[i]
	if r.memoArmed && r.memo == memsys.Addr((l.tag*r.numSets+set)*memsys.LineSize) {
		r.memoArmed = false
	}
	r.sets[set] = append(lines[:i], lines[i+1:]...)
	return l
}

// access is AccessAt: a hit touches LRU and dirties writes.
func (r *refCache) access(a memsys.Addr, write bool) bool {
	set, i := r.find(a)
	if write {
		r.writes.Observe(i >= 0)
	} else {
		r.reads.Observe(i >= 0)
	}
	if i < 0 {
		return false
	}
	if write {
		r.sets[set][i].dirty = true
	}
	r.touch(set, i)
	return true
}

// streamRead is AccessStreamReadAt: a read that arms the memo on a hit.
func (r *refCache) streamRead(a memsys.Addr) bool {
	hit := r.access(a, false)
	if hit {
		r.memo, r.memoArmed = memsys.LineAddr(a), true
	}
	return hit
}

func (r *refCache) lookup(a memsys.Addr) bool {
	_, i := r.find(a)
	return i >= 0
}

// fill installs a line (refreshing it when present), evicting the LRU
// unpinned line of a full set. installed is false only when a fully
// pinned set rejects the fill.
func (r *refCache) fill(a memsys.Addr, dirty bool) (victim EvictedLine, evicted, installed bool) {
	set, i := r.find(a)
	if i >= 0 {
		if dirty {
			r.sets[set][i].dirty = true
		}
		r.touch(set, i)
		return EvictedLine{}, false, true
	}
	if len(r.sets[set]) >= r.ways {
		lines := r.sets[set]
		vi := -1
		for j := len(lines) - 1; j >= 0; j-- {
			if !lines[j].pinned {
				vi = j
				break
			}
		}
		if vi == -1 {
			return EvictedLine{}, false, false
		}
		v := r.remove(set, vi)
		victim = EvictedLine{Addr: memsys.Addr((v.tag*r.numSets + set) * memsys.LineSize), Dirty: v.dirty}
		evicted = true
		r.evictions++
		if v.dirty {
			r.writebacks++
		}
	}
	_, tag := r.locate(a)
	r.sets[set] = append([]refLine{{tag: tag, dirty: dirty}}, r.sets[set]...)
	return victim, evicted, true
}

func (r *refCache) invalidate(a memsys.Addr) (present, dirty bool) {
	set, i := r.find(a)
	if i < 0 {
		return false, false
	}
	return true, r.remove(set, i).dirty
}

// pin is Pin: a present line is pinned; an absent one is filled and
// pinned unless the set already has ways-1 pinned lines.
func (r *refCache) pin(a memsys.Addr) bool {
	set, i := r.find(a)
	if i < 0 {
		if r.pinnedIn(set) >= r.ways-1 {
			return false
		}
		if _, _, ok := r.fill(a, false); !ok {
			return false
		}
		set, i = r.find(a)
	}
	r.sets[set][i].pinned = true
	return true
}

func (r *refCache) pinnedIn(set uint64) int {
	n := 0
	for _, l := range r.sets[set] {
		if l.pinned {
			n++
		}
	}
	return n
}

// sameLineReadHit is SameLineReadHit: a read hit replayed through the
// armed memo, nothing otherwise.
func (r *refCache) sameLineReadHit(a memsys.Addr) bool {
	if !r.memoArmed || memsys.LineAddr(a) != r.memo {
		return false
	}
	return r.access(a, false)
}

// The operations of a FuzzCacheOps script. Each op is two bytes: the op
// byte (kind in the low nibble modulo numCacheOps, the write/dirty flag in
// bit 4, an in-line byte offset/8 in bits 5-7) and the line index.
const (
	opAccess         = iota // AccessAt(flag = write)
	opStreamRead            // AccessStreamReadAt
	opLookup                // LookupAt
	opFillMiss              // FillMissAt(flag = dirty) of the line the previous op probed and missed
	opFillMissStream        // FillMissStreamAt(flag = dirty), same contract
	opFill                  // FillAt(flag = dirty), present or absent
	opInvalidate            // InvalidateAt
	opPin                   // Pin
	opSameLine              // SameLineReadHit
	opDropHot               // DropHot
	numCacheOps
)

// cacheOp encodes one script op.
func cacheOp(kind int, flag bool, a memsys.Addr) []byte {
	op := byte(kind) | byte(uint64(a)%memsys.LineSize/8)<<5
	if flag {
		op |= 1 << 4
	}
	return []byte{op, byte(uint64(a) / memsys.LineSize)}
}

// quickCheckTrace is the trace the former quick-check comparison drew
// from seed: a 1 KB cache of 1, 2 or 4 ways and 3000 random reads and
// writes over 16 KB, each miss followed by a fill of the same line.
func quickCheckTrace(seed uint64) []byte {
	r := stats.NewRand(seed)
	ways := []int{1, 2, 4}[r.Intn(3)]
	numSets := (1 << 10) / (memsys.LineSize * ways)
	script := []byte{byte(ways - 1), byte(numSets - 1)}
	ref := newRefCache(numSets, ways)
	for i := 0; i < 3000; i++ {
		a := memsys.Addr(r.Intn(1 << 14))
		write := r.Intn(3) == 0
		script = append(script, cacheOp(opAccess, write, a)...)
		if !ref.access(a, write) {
			script = append(script, cacheOp(opFill, write, a)...)
			ref.fill(a, write)
		}
	}
	return script
}

// randomScript is a script of ops random operations of every kind. A wide
// script draws any geometry and any of the 256 lines; a tight one draws a
// geometry of at most 4 ways and 4 sets and lines from twice its
// capacity, which makes the rare sequences likely: a memo armed, its line
// evicted or invalidated, then read through the memo again.
func randomScript(seed uint64, ops int, tight bool) []byte {
	r := stats.NewRand(seed)
	geom, lines := 256, 256
	if tight {
		geom = 4
	}
	ways, sets := r.Intn(geom), r.Intn(geom)
	if tight {
		lines = 2 * (1 + ways) * (1 + sets)
	}
	script := []byte{byte(ways), byte(sets)}
	for i := 0; i < ops; i++ {
		script = append(script, byte(r.Intn(256)), byte(r.Intn(lines)))
	}
	return script
}

// FuzzCacheOps decodes each input to a cache geometry (1-8 ways, 1-16
// sets, header bytes 0 and 1) and an op script, runs it on the real cache
// and on refCache, and requires identical results on every step: hit or
// miss, victim address and dirty bit, pin and invalidation outcomes, and
// the Reads/Writes/Evictions/Writebacks counters. At the end every line's
// presence and the pinned-line count must agree too.
func FuzzCacheOps(f *testing.F) {
	for seed := uint64(1); seed <= 20; seed++ {
		f.Add(quickCheckTrace(seed))
	}
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(randomScript(seed, 2000, false))
		f.Add(randomScript(seed, 2000, true))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		ways := 1 + int(script[0]%8)
		numSets := 1 + int(script[1]%16)
		c := New(Config{SizeBytes: numSets * ways * memsys.LineSize, Ways: ways, Name: "fuzz"})
		ref := newRefCache(numSets, ways)
		// missed is the line the previous op probed and missed, if any:
		// the known-absent fills may only target it.
		var missed memsys.Addr
		missedOK := false
		for i := 2; i+1 < len(script); i += 2 {
			op := script[i]
			kind := int(op&0x0f) % numCacheOps
			flag := op&(1<<4) != 0
			a := memsys.Addr(uint64(script[i+1])*memsys.LineSize + uint64(op>>5)*8)
			step := func(what string, got, want any) {
				if got != want {
					t.Fatalf("%d-way %d-set, op %d (kind %d, flag %v, addr %#x): %s %v, reference %v",
						ways, numSets, (i-2)/2, kind, flag, a, what, got, want)
				}
			}
			probed := false
			switch kind {
			case opAccess:
				probed = true
				step("hit", c.AccessAt(c.Resolve(a), flag), ref.access(a, flag))
			case opStreamRead:
				probed = true
				step("hit", c.AccessStreamReadAt(c.Resolve(a)), ref.streamRead(a))
			case opLookup:
				probed = true
				step("present", c.LookupAt(c.Resolve(a)), ref.lookup(a))
			case opFillMiss, opFillMissStream:
				if !missedOK {
					break
				}
				a = missed
				var v EvictedLine
				var ev bool
				if kind == opFillMiss {
					v, ev = c.FillMissAt(c.Resolve(a), flag)
				} else {
					v, ev = c.FillMissStreamAt(c.Resolve(a), flag)
				}
				rv, rev, ok := ref.fill(a, flag)
				if ok && kind == opFillMissStream {
					ref.memo, ref.memoArmed = memsys.LineAddr(a), true
				}
				step("evicted", ev, rev)
				step("victim", v, rv)
			case opFill:
				v, ev := c.FillAt(c.Resolve(a), flag)
				rv, rev, _ := ref.fill(a, flag)
				step("evicted", ev, rev)
				step("victim", v, rv)
			case opInvalidate:
				p, d := c.InvalidateAt(c.Resolve(a))
				rp, rd := ref.invalidate(a)
				step("present", p, rp)
				step("dirty", d, rd)
			case opPin:
				step("pinned", c.Pin(a), ref.pin(a))
			case opSameLine:
				step("memo hit", c.SameLineReadHit(a), ref.sameLineReadHit(a))
			case opDropHot:
				c.DropHot()
				ref.memoArmed = false
			}
			if probed {
				missed = a
				missedOK = !ref.lookup(a)
			} else {
				missedOK = false
			}
			step("reads", c.Reads, ref.reads)
			step("writes", c.Writes, ref.writes)
			step("evictions", c.Evictions.Value(), ref.evictions)
			step("writebacks", c.Writebacks.Value(), ref.writebacks)
		}
		for line := 0; line < 256; line++ {
			a := memsys.Addr(line * memsys.LineSize)
			if got, want := c.LookupAt(c.Resolve(a)), ref.lookup(a); got != want {
				t.Fatalf("end of script: line %#x present %v, reference %v", a, got, want)
			}
		}
		pinned := 0
		for set := range ref.sets {
			pinned += ref.pinnedIn(set)
		}
		if got := c.PinnedLines(); got != pinned {
			t.Fatalf("end of script: %d pinned lines, reference %d", got, pinned)
		}
	})
}

// TestPinExcludesFromEviction pins random lines, then floods the cache and
// requires every pinned line to still be present.
func TestPinExcludesFromEviction(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		c := New(Config{SizeBytes: 1 << 10, Ways: 4, Name: "p"})
		var pinned []memsys.Addr
		for i := 0; i < 8; i++ {
			a := memsys.Addr(r.Intn(1<<13)) &^ 63
			if c.Pin(a) {
				pinned = append(pinned, a)
			}
		}
		for i := 0; i < 2000; i++ {
			a := memsys.Addr(r.Intn(1 << 15))
			if !c.AccessAt(c.Resolve(a), false) {
				c.Fill(a, false)
			}
		}
		for _, a := range pinned {
			if !c.LookupAt(c.Resolve(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPinRefusesFullSet(t *testing.T) {
	// 2-way cache: second pin into the same set must fail (a set must
	// keep one replaceable way).
	c := New(Config{SizeBytes: 1 << 10, Ways: 2, Name: "p"})
	numSets := (1 << 10) / (64 * 2)
	a1 := memsys.Addr(0)
	a2 := memsys.Addr(numSets * 64) // same set, next tag
	if !c.Pin(a1) {
		t.Fatal("first pin should succeed")
	}
	if c.Pin(a2) {
		t.Fatal("pin must keep one replaceable way per set")
	}
	if c.PinnedLines() != 1 {
		t.Fatalf("pinned lines %d", c.PinnedLines())
	}
	// Re-pinning the same line is idempotent.
	if !c.Pin(a1) || c.PinnedLines() != 1 {
		t.Fatal("re-pin should be idempotent")
	}
}

// PinnedLines counts pinned lines across the cache.
func (c *Cache) PinnedLines() int {
	n := 0
	for i := range c.meta {
		n += bits.OnesCount64(c.meta[i].pin)
	}
	return n
}
