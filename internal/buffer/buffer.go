// Package buffer implements the simulated buffer manager of §4.2: a pool
// of M pages with a reservation mechanism that lets query operators
// (sorts and joins) reserve buffers for use as workspaces, while page
// replacement for the non-reserved remainder follows the LRU policy.
// Reserved buffers are managed by the operators themselves, so the pool
// tracks only their counts; the LRU cache tracks page identities for the
// unreserved portion and shrinks as reservations grow.
//
// The LRU cache sits on the path of every simulated block I/O, so it is
// built from flat slices and never touches a Go map there. Cached pages
// are nodes of a doubly-linked list, pooled in one slice and linked by
// index. The index from page key to node is an open-addressed hash
// table of node ids: a power-of-two table kept at most half full,
// multiply-shift hashing, and linear probing. Deletion shifts the rest
// of the probe run back into the hole, so the table holds no
// tombstones, and it doubles when an insert would pass half full. Key
// equality is checked against the node the entry points to.
package buffer

import (
	"fmt"
	"math/bits"
)

// PageKey identifies a cached page: a file (relation or temp) and a page
// number within it.
type PageKey struct {
	File int64
	Page int32
}

// lruNode is one cached page of the LRU list. Nodes live in a pooled
// slice and link by index; a vacated node is recycled through a free
// list threaded through next. Caching a page is on the simulator's
// per-I/O hot path, and with pooled nodes it allocates nothing in
// steady state (the boxed container/list this replaces allocated one
// element per insert — the single largest allocation source in whole
// simulation runs).
type lruNode struct {
	key        PageKey
	next, prev int32
}

// nilNode terminates LRU links and the free list, and marks an empty
// index entry.
const nilNode = int32(-1)

// minIndex is the initial index size: 8 cached pages before it grows.
const minIndex = 16

// Pool is the buffer pool.
type Pool struct {
	total    int
	reserved map[int64]int // reservation per owner id
	sumRes   int

	nodes []lruNode // pooled LRU nodes
	head  int32     // most recently used (nilNode when empty)
	tail  int32     // least recently used (nilNode when empty)
	free  int32     // vacant-node list through next
	count int       // cached pages
	// index maps page keys to nodes: a power-of-two open-addressed table
	// of node ids (nilNode when empty), at most half full. shift is 64
	// minus log2(len(index)), the multiply-shift hash's output width.
	index   []int32
	shift   uint8
	hits    uint64
	misses  uint64
	evicted uint64
}

// NewPool returns a pool of `total` pages with no reservations.
func NewPool(total int) *Pool {
	if total <= 0 {
		panic(fmt.Sprintf("buffer: pool of %d pages", total))
	}
	p := &Pool{
		total:    total,
		reserved: make(map[int64]int),
		head:     nilNode,
		tail:     nilNode,
		free:     nilNode,
	}
	p.resize(minIndex)
	return p
}

// hash is the home slot of key: a multiply-shift hash of the file id
// and page number packed into one word.
func (p *Pool) hash(key PageKey) int {
	x := uint64(key.File)<<32 ^ uint64(uint32(key.Page))
	return int(x * 0x9e3779b97f4a7c15 >> p.shift)
}

// find probes for key. It returns the slot holding key and its node, or
// the empty slot that ends the probe run and nilNode.
func (p *Pool) find(key PageKey) (slot int, id int32) {
	mask := len(p.index) - 1
	for slot = p.hash(key); ; slot = (slot + 1) & mask {
		if id = p.index[slot]; id < 0 || p.nodes[id].key == key {
			return slot, id
		}
	}
}

// unindex removes node id from the index. Linear probing needs every
// entry reachable from its home slot without crossing an empty one, so
// instead of leaving a tombstone the deletion walks the rest of the
// probe run and moves back each entry whose home lies at or before the
// hole, then empties the last hole.
func (p *Pool) unindex(id int32) {
	mask := len(p.index) - 1
	i := p.hash(p.nodes[id].key)
	for p.index[i] != id {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		e := p.index[j]
		if e < 0 {
			break
		}
		// e may fill the hole at i unless its home lies cyclically in
		// (i, j]: probing from there would never reach i.
		if (j-p.hash(p.nodes[e].key))&mask >= (j-i)&mask {
			p.index[i] = e
			i = j
		}
	}
	p.index[i] = nilNode
}

// resize rebuilds the index at n slots, a power of two, and reinserts
// every cached page.
func (p *Pool) resize(n int) {
	old := p.index
	p.index = make([]int32, n)
	for i := range p.index {
		p.index[i] = nilNode
	}
	p.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, id := range old {
		if id < 0 {
			continue
		}
		i := p.hash(p.nodes[id].key)
		for p.index[i] >= 0 {
			i = (i + 1) & mask
		}
		p.index[i] = id
	}
}

// Total returns the pool size M in pages.
func (p *Pool) Total() int { return p.total }

// Reserved returns the total pages currently reserved by all owners.
func (p *Pool) Reserved() int { return p.sumRes }

// SetTotal resizes the pool to n pages, evicting cached LRU pages if the
// unreserved region shrinks below its occupancy. It panics if n is less
// than the currently reserved total: a resizer (the multi-tenant memory
// broker) must never take back pages an allocation policy has already
// granted — it floors each quota at the cell's reservations and reclaims
// only as queries release.
func (p *Pool) SetTotal(n int) {
	if n < p.sumRes {
		panic(fmt.Sprintf("buffer: resize to %d below %d reserved", n, p.sumRes))
	}
	p.total = n
	p.shrinkLRU()
}

// Free returns the unreserved page count (the LRU cache's capacity).
func (p *Pool) Free() int { return p.total - p.sumRes }

// ReservationOf returns owner's current reservation.
func (p *Pool) ReservationOf(owner int64) int { return p.reserved[owner] }

// SetReservation adjusts owner's reservation to n pages, evicting cached
// LRU pages if the unreserved pool shrinks below its occupancy. It
// panics if the change would over-commit the pool: allocation policies
// must never hand out more than M pages in total.
func (p *Pool) SetReservation(owner int64, n int) {
	if n < 0 {
		panic(fmt.Sprintf("buffer: negative reservation %d", n))
	}
	old := p.reserved[owner]
	if p.sumRes-old+n > p.total {
		panic(fmt.Sprintf("buffer: over-commit: %d reserved + %d requested > %d total",
			p.sumRes-old, n, p.total))
	}
	if n == 0 {
		delete(p.reserved, owner)
	} else {
		p.reserved[owner] = n
	}
	p.sumRes += n - old
	p.shrinkLRU()
}

// Release drops owner's reservation entirely.
func (p *Pool) Release(owner int64) { p.SetReservation(owner, 0) }

// unlink detaches node id from the LRU list; the node itself stays
// allocated (callers relink it or recycle it onto the free list).
func (p *Pool) unlink(id int32) {
	n := &p.nodes[id]
	if n.prev >= 0 {
		p.nodes[n.prev].next = n.next
	} else {
		p.head = n.next
	}
	if n.next >= 0 {
		p.nodes[n.next].prev = n.prev
	} else {
		p.tail = n.prev
	}
}

// linkFront makes node id the most recently used.
func (p *Pool) linkFront(id int32) {
	n := &p.nodes[id]
	n.prev = nilNode
	n.next = p.head
	if p.head >= 0 {
		p.nodes[p.head].prev = id
	} else {
		p.tail = id
	}
	p.head = id
}

// evictBack drops the least-recently-used page and recycles its node.
func (p *Pool) evictBack() {
	id := p.tail
	p.unindex(id)
	p.unlink(id)
	p.nodes[id].next = p.free
	p.free = id
	p.count--
	p.evicted++
}

// shrinkLRU evicts least-recently-used pages until the cache fits the
// unreserved pool.
func (p *Pool) shrinkLRU() {
	for p.count > p.Free() {
		p.evictBack()
	}
}

// Lookup reports whether the page is cached in the unreserved pool and,
// if so, promotes it to most recently used.
func (p *Pool) Lookup(key PageKey) bool {
	if _, id := p.find(key); id >= 0 {
		if p.head != id {
			p.unlink(id)
			p.linkFront(id)
		}
		p.hits++
		return true
	}
	p.misses++
	return false
}

// Insert caches a page just read from disk, evicting the LRU page if the
// unreserved pool is full. With no unreserved space the page simply is
// not cached.
func (p *Pool) Insert(key PageKey) {
	if p.Free() == 0 {
		return
	}
	slot, id := p.find(key)
	if id >= 0 {
		if p.head != id {
			p.unlink(id)
			p.linkFront(id)
		}
		return
	}
	// Evicting or growing moves index entries, so the key's slot is
	// probed again afterwards. An eviction frees the entry the new page
	// takes, so only an insert without one can pass half full.
	if p.count >= p.Free() {
		p.evictBack()
		slot, _ = p.find(key)
	} else if 2*(p.count+1) > len(p.index) {
		p.resize(2 * len(p.index))
		slot, _ = p.find(key)
	}
	id = p.free
	if id >= 0 {
		p.free = p.nodes[id].next
	} else {
		p.nodes = append(p.nodes, lruNode{})
		id = int32(len(p.nodes) - 1)
	}
	p.nodes[id].key = key
	p.index[slot] = id
	p.linkFront(id)
	p.count++
}

// Stats returns cache hit/miss/eviction counters.
func (p *Pool) Stats() (hits, misses, evicted uint64) {
	return p.hits, p.misses, p.evicted
}

// Cached returns the number of pages currently in the LRU cache.
func (p *Pool) Cached() int { return p.count }
