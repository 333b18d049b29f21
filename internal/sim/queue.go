package sim

// Timed events wait in one 4-ary min-heap of heapItem, ordered by
// (at, seq): the exact total order every event fires in. Sequence
// numbers are unique, so no two entries compare equal and the pop order
// does not depend on the heap's shape.
//
// Cancellation is lazy. Timer.Stop vacates the event's slot, which
// leaves the heap entry a tombstone: its seq no longer matches the
// slot's. A tombstone is dropped when it reaches the root, and the heap
// compacts in place once tombstones outnumber live entries, so a
// cancel-heavy schedule cannot grow it without bound.

// compactMin is the smallest heap that compaction rewrites: below it,
// tombstones cost less than the pass that would drop them.
const compactMin = 32

// heapLess orders pending events by time, then scheduling sequence.
func heapLess(a, b heapItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push files a timed event into the heap.
func (k *Kernel) push(it heapItem) {
	h := append(k.heap, it)
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
	k.heap = h
}

// peek returns the earliest live timed event without consuming it,
// dropping the tombstones it finds at the root. ok is false when no
// timed event is pending.
func (k *Kernel) peek() (heapItem, bool) {
	for len(k.heap) > 0 {
		it := k.heap[0]
		if k.slots[it.id].seq == it.seq {
			return it, true
		}
		k.popRoot()
		if k.dead > 0 {
			k.dead--
		}
	}
	return heapItem{}, false
}

// popRoot removes the heap's root.
func (k *Kernel) popRoot() {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
}

// siftDown sinks it from position i of the heap.
func (k *Kernel) siftDown(i int, it heapItem) {
	h := k.heap
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

// tombstone counts a cancelled event and compacts the heap once
// tombstones outnumber live entries, so the cost is O(1) amortized per
// cancellation. The count includes cancelled zero-delay lane entries,
// which the lane skips on its own; they only bring a compaction
// forward.
func (k *Kernel) tombstone() {
	k.dead++
	if k.dead*2 > len(k.heap) && len(k.heap) >= compactMin {
		k.compact()
	}
}

// compact drops every tombstone from the heap in place and restores
// the heap property.
func (k *Kernel) compact() {
	live := k.heap[:0]
	for _, it := range k.heap {
		if k.slots[it.id].seq == it.seq {
			live = append(live, it)
		}
	}
	k.heap = live
	k.dead = 0
	if len(live) < 2 {
		return
	}
	for i := (len(live) - 2) / 4; i >= 0; i-- { // from the last parent up
		k.siftDown(i, live[i])
	}
}
