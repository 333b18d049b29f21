package sim

// Timed events wait in two 4-ary min-heaps of heapItem, each ordered by
// (at, seq): firm-deadline aborts (AtInterrupt) in k.dl, every other
// timed event in k.heap. A query arms one abort at its arrival, and
// most sit until their deadline long after the query's other events
// have fired, so keeping them apart leaves the busy heap short. The
// next timed event is the smaller of the two roots under heapLess,
// which is the exact total order every event fires in. Sequence
// numbers are unique, so no two entries compare equal and the pop
// order does not depend on either heap's shape.

// heapLess orders pending events by time, then scheduling sequence.
func heapLess(a, b heapItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push files it into heap h and returns the grown heap.
func push(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !heapLess(it, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	return h
}

// peek returns the earliest timed event without consuming it, and the
// heap whose root it is; the caller pops it with popRoot. ok is false
// when no timed event is pending.
func (k *Kernel) peek() (it heapItem, h *[]heapItem, ok bool) {
	switch {
	case len(k.dl) > 0 && (len(k.heap) == 0 || heapLess(k.dl[0], k.heap[0])):
		h = &k.dl
	case len(k.heap) > 0:
		h = &k.heap
	default:
		return heapItem{}, nil, false
	}
	return (*h)[0], h, true
}

// popRoot removes the root of heap h and returns the shrunk heap.
func popRoot(h []heapItem) []heapItem {
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		siftDown(h, 0, last)
	}
	return h
}

// siftDown sinks it from position i of heap h.
func siftDown(h []heapItem, i int, it heapItem) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if heapLess(h[j], h[m]) {
				m = j
			}
		}
		if !heapLess(h[m], it) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}
