package sim

import (
	"reflect"
	"sync"
)

// Arena is a per-kernel allocation region for simulation state with a
// replicate lifetime: the kernel struct itself, processes and their
// frames, and operator scratch. A sweep worker builds each replicate's
// kernel with NewKernelIn(arena), runs it, harvests the results, and
// calls Reset — the next replicate then starts warm, reusing every slab
// chunk and queue backing array the previous one grew, instead of
// re-growing them from nothing. Within a replicate, state whose owner
// ends gives its element back (FreeTo), and the next allocation of that
// type hands it out again, so an arena stays at the size of what is
// alive at once. Arenas outlive the runs that use them: TakeArena and
// PutArena keep them in a package-level pool. Arenas are
// single-threaded: one arena belongs to one worker (one kernel at a
// time), and nothing inside is locked.
type Arena struct {
	slabs  map[reflect.Type]resettable
	list   []resettable // same slabs, in creation order, for Reset
	kernel *Kernel      // live kernel allocated from this arena, if any

	// Queue backings harvested from the previous kernel on Reset and
	// re-adopted by the next NewKernelIn: the zero-delay lane, the two
	// timed-event heaps, and the typed-event registries.
	laneBuf []laneItem
	heapBuf []heapItem
	dlBuf   []heapItem
	taskBuf []*Proc
	compBuf []Completer
}

// NewArena returns an empty arena. Capacity grows on demand and is
// retained (modulo high-water release) across Reset.
func NewArena() *Arena { return &Arena{} }

// arenaPool is the free list of arenas between the runs that use them:
// sweep workers and one-shot runs on any goroutine take from it and put
// back, so a later sweep starts on the slabs an earlier one grew. It
// holds at most as many arenas as were ever in use at once.
var arenaPool struct {
	sync.Mutex
	free []*Arena
}

// TakeArena returns an arena from the pool, warm from an earlier run,
// or a new one when the pool is empty. The caller owns it until
// PutArena.
func TakeArena() *Arena {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	n := len(arenaPool.free)
	if n == 0 {
		return NewArena()
	}
	a := arenaPool.free[n-1]
	arenaPool.free[n-1] = nil
	arenaPool.free = arenaPool.free[:n-1]
	return a
}

// PutArena gives a back to the pool for a later TakeArena. a must have
// been Reset since its last kernel: nothing from that run may survive
// in it. Putting an arena that owns a live kernel panics.
func PutArena(a *Arena) {
	if a.kernel != nil {
		panic("sim: PutArena of an arena that owns a live kernel; Reset it first")
	}
	arenaPool.Lock()
	arenaPool.free = append(arenaPool.free, a)
	arenaPool.Unlock()
}

// resettable is the erased face of Slab[T] that Arena.Reset drives.
type resettable interface{ reset() }

// Slab is a typed bump allocator: chunks of T handed out one element at
// a time, recycled wholesale on reset. Allocation is an index increment,
// or a pop from the slab's free list when an owner gave an element back
// (Free). Chunk sizes double, so n allocations cost O(log n) chunk
// mallocs ever, and a warm slab costs none.
type Slab[T any] struct {
	chunks [][]T
	ci, n  int  // next free element is chunks[ci][n]
	free   []*T // elements given back this cycle, handed out again first
}

// Recycler is implemented by arena types that keep part of their state
// across reuse. Free calls Recycle in place of zeroing the element, and
// Recycle must leave it zeroed apart from slice backing it truncates to
// length zero and keeps, so the next owner appends into warm memory.
type Recycler interface{ Recycle() }

// Alloc returns a pointer to a zeroed T from the slab: the element most
// recently given back, if any, else the next unused one.
func (s *Slab[T]) Alloc() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if s.ci == len(s.chunks) {
		size := 8
		if s.ci > 0 {
			size = 2 * len(s.chunks[s.ci-1])
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
	c := s.chunks[s.ci]
	p := &c[s.n]
	if s.n++; s.n == len(c) {
		s.ci++
		s.n = 0
	}
	return p
}

// Free gives p, an element of this slab, back for the next Alloc. It
// zeroes p first (or lets it Recycle itself), so nothing it referenced
// stays reachable through the free list. The caller must hold no other
// pointer to p that it will use again.
func (s *Slab[T]) Free(p *T) {
	if r, ok := any(p).(Recycler); ok {
		r.Recycle()
	} else {
		var zero T
		*p = zero
	}
	s.free = append(s.free, p)
}

// used reports the number of elements handed out this cycle.
func (s *Slab[T]) used() int {
	u := s.n
	for i := 0; i < s.ci; i++ {
		u += len(s.chunks[i])
	}
	return u
}

// reset zeroes every element handed out this cycle (dropping the object
// graphs they reference), empties the free list (keeping its backing)
// and rewinds the slab. When the cycle used at most a quarter of the
// slab's capacity, the largest chunk is released: one burst replicate
// must not pin its high-water footprint for the rest of the sweep.
// Chunks double in size, so dropping the tail chunk roughly halves
// capacity per idle cycle.
func (s *Slab[T]) reset() {
	for i := 0; i < s.ci; i++ {
		clear(s.chunks[i])
	}
	if s.ci < len(s.chunks) && s.n > 0 {
		clear(s.chunks[s.ci][:s.n])
	}
	if u := s.used(); len(s.chunks) > 1 && u*4 <= u+s.remaining() {
		s.chunks[len(s.chunks)-1] = nil
		s.chunks = s.chunks[:len(s.chunks)-1]
	}
	s.ci, s.n = 0, 0
	clear(s.free[:cap(s.free)])
	s.free = s.free[:0]
}

// remaining reports the unused capacity left in the slab this cycle.
func (s *Slab[T]) remaining() int {
	r := 0
	for i := s.ci; i < len(s.chunks); i++ {
		r += len(s.chunks[i])
	}
	return r - s.n
}

// SlabFor returns arena a's slab for type T, creating it on first use.
// Go's generics cannot hang a type-parameterized method off Arena, so
// the per-type lookup lives in this free function; the reflect.Type key
// is computed once per call site per cycle in practice (callers cache
// the slab or the allocation in their state struct).
func SlabFor[T any](a *Arena) *Slab[T] {
	t := reflect.TypeOf((*T)(nil))
	if s, ok := a.slabs[t]; ok {
		return s.(*Slab[T])
	}
	if a.slabs == nil {
		a.slabs = make(map[reflect.Type]resettable)
	}
	s := &Slab[T]{}
	a.slabs[t] = s
	a.list = append(a.list, s)
	return s
}

// AllocFrom returns a zeroed *T from arena a, or from the heap when a is
// nil — the allocation shim operators use so they run identically under
// a plain NewKernel.
func AllocFrom[T any](a *Arena) *T {
	if a == nil {
		return new(T)
	}
	return SlabFor[T](a).Alloc()
}

// FreeTo gives p, allocated by AllocFrom[T](a), back to arena a at the
// end of its owner's use (see Slab.Free); the next AllocFrom[T](a) hands
// it out again. With a nil arena it does nothing, and the garbage
// collector reclaims p as usual.
func FreeTo[T any](a *Arena, p *T) {
	if a != nil {
		SlabFor[T](a).Free(p)
	}
}

// Reset recycles everything allocated since the last Reset: the live
// kernel's queue backings are harvested (cleared, retained for the next
// NewKernelIn), and every slab is zeroed and rewound. All pointers into
// the arena — frames, processes, the kernel itself — are dead after
// Reset; the caller must extract results first.
func (a *Arena) Reset() {
	if k := a.kernel; k != nil {
		a.laneBuf = k.lane[:0]
		a.heapBuf = k.heap[:0]
		a.dlBuf = k.dl[:0]
		clear(k.tasks)
		a.taskBuf = k.tasks[:0]
		clear(k.comps)
		a.compBuf = k.comps[:0]
		a.kernel = nil
	}
	for _, s := range a.list {
		s.reset()
	}
}
