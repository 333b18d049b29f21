// Package policy implements the memory allocation algorithms the paper
// compares (Table 5): Max, MinMax-N (N = ∞ gives plain MinMax) and
// Proportional-N. All of them walk the present queries in Earliest
// Deadline order, so more urgent queries are granted buffers ahead of
// queries with looser deadlines. PMM (package core) composes the Max and
// MinMax strategies adaptively.
package policy

import (
	"fmt"

	"pmm/internal/query"
)

// Allocator decides each present query's memory grant. `present` is
// sorted by ED priority, most urgent first, and every query needs at
// least one page (MinMem ≥ 1). Allocate overwrites grants, which the
// caller owns and sizes to len(present), so that replanning allocates
// nothing: grants[i] becomes 0 or within [MinMem, MaxMem] of present[i],
// summing to at most total.
type Allocator interface {
	Name() string
	Allocate(present []*query.Query, total int, grants []int)
}

// Max admits queries at their maximum allocation or not at all, with no
// explicit MPL limit: scanning in ED order, every query whose maximum
// demand still fits is granted it (§3.2).
type Max struct{}

// Name returns "Max".
func (Max) Name() string { return "Max" }

// Allocate implements the Max strategy.
func (Max) Allocate(present []*query.Query, total int, grants []int) {
	free := total
	for i, q := range present {
		grants[i] = 0
		if q.MaxMem <= free {
			grants[i] = q.MaxMem
			free -= q.MaxMem
		}
	}
}

// MinMaxN admits up to N queries (ED order, minimum demands must fit) and
// allocates in two passes: first everyone's minimum, then top-ups to the
// maximum starting from the most urgent query. N ≤ 0 means unlimited —
// the plain MinMax algorithm.
type MinMaxN struct {
	// N is the MPL limit; 0 or negative means unlimited.
	N int
}

// Name returns "MinMax" for the unlimited variant, else "MinMax-N".
func (m MinMaxN) Name() string {
	if m.N <= 0 {
		return "MinMax"
	}
	return fmt.Sprintf("MinMax-%d", m.N)
}

// Allocate implements the two-pass MinMax allocation of §3.2.
func (m MinMaxN) Allocate(present []*query.Query, total int, grants []int) {
	free := total
	end := admitMinimums(present, grants, &free, m.N)
	// Second pass: top up the admitted queries in priority order. The
	// last query topped may land between its minimum and maximum — the
	// §3.2 exception.
	for i := 0; i < end && free > 0; i++ {
		if grants[i] == 0 {
			continue
		}
		up := present[i].MaxMem - grants[i]
		if up > free {
			up = free
		}
		grants[i] += up
		free -= up
	}
}

// ProportionalN admits like MinMaxN but divides memory so each admitted
// query receives the same fraction of its maximum demand, floored at its
// minimum. N ≤ 0 means unlimited (plain Proportional).
type ProportionalN struct {
	// N is the MPL limit; 0 or negative means unlimited.
	N int
}

// Name returns "Proportional" for the unlimited variant, else
// "Proportional-N".
func (p ProportionalN) Name() string {
	if p.N <= 0 {
		return "Proportional"
	}
	return fmt.Sprintf("Proportional-%d", p.N)
}

// Allocate implements proportional division: the largest fraction φ such
// that Σ max(min_i, φ·max_i) fits in memory, found by bisection (the sum
// is monotone in φ).
func (p ProportionalN) Allocate(present []*query.Query, total int, grants []int) {
	free := total
	end := admitMinimums(present, grants, &free, p.N)
	need := func(phi float64) int {
		sum := 0
		for i, q := range present[:end] {
			if grants[i] == 0 {
				continue
			}
			a := int(phi * float64(q.MaxMem))
			if a < q.MinMem {
				a = q.MinMem
			}
			if a > q.MaxMem {
				a = q.MaxMem
			}
			sum += a
		}
		return sum
	}
	lo, hi := 0.0, 1.0
	if need(1) <= total {
		lo = 1
	} else {
		for it := 0; it < 40; it++ {
			mid := (lo + hi) / 2
			if need(mid) <= total {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	for i, q := range present[:end] {
		if grants[i] == 0 {
			continue
		}
		a := int(lo * float64(q.MaxMem))
		if a < q.MinMem {
			a = q.MinMem
		}
		if a > q.MaxMem {
			a = q.MaxMem
		}
		grants[i] = a
	}
}

// admitMinimums performs the shared first pass: walk the ED-ordered
// queries granting minimum demands while they fit and the admission count
// stays within limit (0 = unlimited), setting every other grant to 0. It
// decrements *free in place and returns end, the number of queries the
// walk reached: the admitted queries are exactly those before end with a
// nonzero grant, since every MinMem is at least 1.
func admitMinimums(present []*query.Query, grants []int, free *int, limit int) (end int) {
	clear(grants)
	admitted := 0
	for i, q := range present {
		if limit > 0 && admitted >= limit {
			return i
		}
		if q.MinMem <= *free {
			grants[i] = q.MinMem
			*free -= q.MinMem
			admitted++
		}
	}
	return len(present)
}

// SortByPriority orders queries by Earliest Deadline (ties broken by
// arrival id for determinism). Insertion sort: the list is nearly sorted
// between consecutive replans.
func SortByPriority(qs []*query.Query) {
	for i := 1; i < len(qs); i++ {
		for j := i; j > 0 && less(qs[j], qs[j-1]); j-- {
			qs[j], qs[j-1] = qs[j-1], qs[j]
		}
	}
}

func less(a, b *query.Query) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.ID < b.ID
}
