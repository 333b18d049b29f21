package buffer

import (
	"testing"
	"testing/quick"
)

func TestReservationAccounting(t *testing.T) {
	p := NewPool(100)
	if p.Free() != 100 || p.Total() != 100 {
		t.Fatalf("fresh pool free=%d total=%d", p.Free(), p.Total())
	}
	p.SetReservation(1, 40)
	p.SetReservation(2, 30)
	if p.Reserved() != 70 || p.Free() != 30 {
		t.Fatalf("reserved=%d free=%d", p.Reserved(), p.Free())
	}
	p.SetReservation(1, 10) // shrink
	if p.Reserved() != 40 || p.ReservationOf(1) != 10 {
		t.Fatalf("after shrink reserved=%d", p.Reserved())
	}
	p.Release(2)
	if p.Reserved() != 10 || p.ReservationOf(2) != 0 {
		t.Fatalf("after release reserved=%d", p.Reserved())
	}
}

func TestOverCommitPanics(t *testing.T) {
	p := NewPool(100)
	p.SetReservation(1, 80)
	defer func() {
		if recover() == nil {
			t.Fatal("over-commit did not panic")
		}
	}()
	p.SetReservation(2, 21)
}

func TestNegativeReservationPanics(t *testing.T) {
	p := NewPool(10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative reservation did not panic")
		}
	}()
	p.SetReservation(1, -1)
}

func TestLRUHitAndMiss(t *testing.T) {
	p := NewPool(3)
	k1 := PageKey{File: 1, Page: 0}
	k2 := PageKey{File: 1, Page: 1}
	if p.Lookup(k1) {
		t.Fatal("empty cache hit")
	}
	p.Insert(k1)
	p.Insert(k2)
	if !p.Lookup(k1) || !p.Lookup(k2) {
		t.Fatal("cached pages missing")
	}
	hits, misses, _ := p.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := NewPool(2)
	a := PageKey{File: 1, Page: 0}
	b := PageKey{File: 1, Page: 1}
	c := PageKey{File: 1, Page: 2}
	p.Insert(a)
	p.Insert(b)
	p.Lookup(a) // a becomes most recent
	p.Insert(c) // evicts b
	if p.Lookup(b) {
		t.Fatal("b should have been evicted")
	}
	if !p.Lookup(a) || !p.Lookup(c) {
		t.Fatal("a and c should remain")
	}
}

func TestReservationShrinksCache(t *testing.T) {
	p := NewPool(10)
	for i := 0; i < 10; i++ {
		p.Insert(PageKey{File: 1, Page: int32(i)})
	}
	if p.Cached() != 10 {
		t.Fatalf("cached=%d", p.Cached())
	}
	p.SetReservation(1, 7)
	if p.Cached() != 3 {
		t.Fatalf("cache not trimmed: %d pages cached, 3 free", p.Cached())
	}
	// With zero free space, inserts are silently skipped.
	p.SetReservation(1, 10)
	p.Insert(PageKey{File: 2, Page: 0})
	if p.Cached() != 0 {
		t.Fatalf("cache should be empty, has %d", p.Cached())
	}
}

func TestReinsertPromotes(t *testing.T) {
	p := NewPool(2)
	a := PageKey{File: 1, Page: 0}
	b := PageKey{File: 1, Page: 1}
	c := PageKey{File: 1, Page: 2}
	p.Insert(a)
	p.Insert(b)
	p.Insert(a) // promote, not duplicate
	p.Insert(c) // should evict b (LRU), not a
	if p.Lookup(b) {
		t.Fatal("b should be evicted")
	}
	if !p.Lookup(a) {
		t.Fatal("a should survive (promoted by reinsert)")
	}
}

func TestCacheInvariantProperty(t *testing.T) {
	// Property: the cache never exceeds the unreserved pool and the
	// reservation ledger never exceeds the total.
	f := func(ops []uint16) bool {
		p := NewPool(64)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				owner := int64(op%5) + 1
				n := int(op % 64)
				if p.Reserved()-p.ReservationOf(owner)+n <= p.Total() {
					p.SetReservation(owner, n)
				}
			case 1:
				p.Insert(PageKey{File: int64(op % 7), Page: int32(op % 100)})
			case 2:
				p.Lookup(PageKey{File: int64(op % 7), Page: int32(op % 100)})
			}
			if p.Cached() > p.Free() || p.Reserved() > p.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refPool is the reference model FuzzPoolMatchesReference checks Pool
// against: a plain map of reservations and a slice holding the LRU
// order, most recently used first.
type refPool struct {
	total, sumRes         int
	res                   map[int64]int
	lru                   []PageKey
	hits, misses, evicted uint64
}

func (r *refPool) free() int { return r.total - r.sumRes }

func (r *refPool) pos(key PageKey) int {
	for i, k := range r.lru {
		if k == key {
			return i
		}
	}
	return -1
}

func (r *refPool) promote(i int) {
	key := r.lru[i]
	copy(r.lru[1:i+1], r.lru[:i])
	r.lru[0] = key
}

func (r *refPool) shrink() {
	for len(r.lru) > r.free() {
		r.lru = r.lru[:len(r.lru)-1]
		r.evicted++
	}
}

func (r *refPool) lookup(key PageKey) bool {
	if i := r.pos(key); i >= 0 {
		r.promote(i)
		r.hits++
		return true
	}
	r.misses++
	return false
}

func (r *refPool) insert(key PageKey) {
	if r.free() == 0 {
		return
	}
	if i := r.pos(key); i >= 0 {
		r.promote(i)
		return
	}
	if len(r.lru) >= r.free() {
		r.lru = r.lru[:len(r.lru)-1]
		r.evicted++
	}
	r.lru = append([]PageKey{key}, r.lru...)
}

// checkAgainst compares p with the reference: counters, cache size,
// LRU order, and the index's own invariants (every cached page found at
// one slot, no stray entries, at most half full).
func (r *refPool) checkAgainst(t *testing.T, p *Pool) {
	t.Helper()
	hits, misses, evicted := p.Stats()
	if hits != r.hits || misses != r.misses || evicted != r.evicted {
		t.Fatalf("stats hits/misses/evicted = %d/%d/%d, reference %d/%d/%d",
			hits, misses, evicted, r.hits, r.misses, r.evicted)
	}
	if p.Cached() != len(r.lru) || p.Free() != r.free() || p.Reserved() != r.sumRes {
		t.Fatalf("cached=%d free=%d reserved=%d, reference %d/%d/%d",
			p.Cached(), p.Free(), p.Reserved(), len(r.lru), r.free(), r.sumRes)
	}
	i := 0
	for id := p.head; id >= 0; id = p.nodes[id].next {
		if i >= len(r.lru) || p.nodes[id].key != r.lru[i] {
			t.Fatalf("LRU position %d holds %v, reference order %v", i, p.nodes[id].key, r.lru)
		}
		i++
	}
	if i != len(r.lru) {
		t.Fatalf("LRU list has %d pages, reference %d", i, len(r.lru))
	}
	entries := 0
	for _, id := range p.index {
		if id >= 0 {
			entries++
		}
	}
	if entries != p.count || 2*p.count > len(p.index) {
		t.Fatalf("index holds %d entries in %d slots for %d cached pages", entries, len(p.index), p.count)
	}
	for _, key := range r.lru {
		if _, id := p.find(key); id < 0 {
			t.Fatalf("cached page %v unreachable through the index", key)
		}
	}
}

// FuzzPoolMatchesReference drives Pool and the map-and-list reference
// through the same Lookup/Insert/SetReservation/SetTotal sequence and
// demands equal hits, misses, evictions and LRU order after every
// operation. The input's first byte sizes the pool; each later
// operation takes four bytes: the kind, then a file (or owner) byte and
// a 16-bit page number (or page count). Invalid resizes and
// reservations (over-commit, below the reserved total) are skipped.
func FuzzPoolMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 2, 0, 1, 0, 0})
	// Growth: a large pool filled with distinct pages, then reread.
	growth := []byte{255}
	for pg := 0; pg < 200; pg++ {
		growth = append(growth, 1, byte(pg%3), byte(pg), 0)
	}
	for pg := 0; pg < 200; pg += 7 {
		growth = append(growth, 0, byte(pg%3), byte(pg), 0)
	}
	f.Add(growth)
	// Collisions: pages sharing one home slot of the initial index,
	// inserted into a smaller pool so that evictions and promotions cut
	// into their probe run, then inserted again.
	probe := NewPool(1)
	home := probe.hash(PageKey{File: 1, Page: 0})
	collide := []byte{6}
	for pg := 0; pg < 1<<16 && len(collide) < 1+4*10; pg++ {
		if probe.hash(PageKey{File: 1, Page: int32(pg)}) == home {
			collide = append(collide, 1, 1, byte(pg), byte(pg>>8))
		}
	}
	collide = append(collide, collide[1:]...)
	collide = append(collide, 2, 1, 4, 0, 3, 0, 3, 0, 3, 0, 7, 0)
	f.Add(collide)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		total := int(data[0]) + 1
		p := NewPool(total)
		r := &refPool{total: total, res: make(map[int64]int)}
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			key := PageKey{File: int64(ops[1] % 8), Page: int32(ops[2]) | int32(ops[3])<<8}
			n := int(key.Page)
			switch ops[0] % 4 {
			case 0:
				if got, want := p.Lookup(key), r.lookup(key); got != want {
					t.Fatalf("Lookup(%v) = %v, reference %v", key, got, want)
				}
			case 1:
				p.Insert(key)
				r.insert(key)
			case 2:
				owner := int64(ops[1] % 4)
				n %= r.total + 1
				if r.sumRes-r.res[owner]+n > r.total {
					continue
				}
				p.SetReservation(owner, n)
				r.sumRes += n - r.res[owner]
				r.res[owner] = n
				r.shrink()
			case 3:
				n %= 512
				if n < r.sumRes || n == 0 {
					continue
				}
				p.SetTotal(n)
				r.total = n
				r.shrink()
			}
			r.checkAgainst(t, p)
		}
	})
}

// BenchmarkPoolLookupInsert measures the per-I/O cache path: look a
// page up and, on a miss, insert it, evicting the LRU page. Pages are
// drawn at random from twice the cache's capacity, so about half the
// lookups miss. Steady state must be 0 allocs/op.
func BenchmarkPoolLookupInsert(b *testing.B) {
	const pages = 1024
	p := NewPool(pages)
	x := uint32(1)
	access := func() {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		key := PageKey{File: int64(x % 4), Page: int32(x>>2) % (pages / 2)}
		if !p.Lookup(key) {
			p.Insert(key)
		}
	}
	for i := 0; i < 4*pages; i++ {
		access()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access()
	}
}
