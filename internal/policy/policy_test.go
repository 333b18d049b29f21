package policy

import (
	"slices"
	"testing"
	"testing/quick"

	"pmm/internal/query"
)

// q builds a test query with the given deadline and memory needs.
func q(id int64, deadline float64, min, max int) *query.Query {
	return &query.Query{ID: id, Deadline: deadline, MinMem: min, MaxMem: max}
}

// allocate runs a over present into a fresh grants slice filled with
// garbage, so a grant the allocator fails to write shows.
func allocate(a Allocator, present []*query.Query, total int) []int {
	grants := make([]int, len(present))
	for i := range grants {
		grants[i] = -7
	}
	a.Allocate(present, total, grants)
	return grants
}

// reference is the implementation that built a fresh grants slice and
// an admitted-index list on every call, kept to pin that filling a
// reused slice changed no grant.
func reference(a Allocator, present []*query.Query, total int) []int {
	grants := make([]int, len(present))
	free := total
	limit := 0
	switch a := a.(type) {
	case Max:
		for i, q := range present {
			if q.MaxMem <= free {
				grants[i] = q.MaxMem
				free -= q.MaxMem
			}
		}
		return grants
	case MinMaxN:
		limit = a.N
	case ProportionalN:
		limit = a.N
	}
	var admitted []int
	for i, q := range present {
		if limit > 0 && len(admitted) >= limit {
			break
		}
		if q.MinMem <= free {
			grants[i] = q.MinMem
			free -= q.MinMem
			admitted = append(admitted, i)
		}
	}
	if _, ok := a.(MinMaxN); ok {
		for _, i := range admitted {
			if free == 0 {
				break
			}
			up := min(present[i].MaxMem-grants[i], free)
			grants[i] += up
			free -= up
		}
		return grants
	}
	share := func(q *query.Query, phi float64) int {
		return min(max(int(phi*float64(q.MaxMem)), q.MinMem), q.MaxMem)
	}
	need := func(phi float64) int {
		sum := 0
		for _, i := range admitted {
			sum += share(present[i], phi)
		}
		return sum
	}
	lo, hi := 0.0, 1.0
	if need(1) <= total {
		lo = 1
	} else {
		for it := 0; it < 40; it++ {
			if mid := (lo + hi) / 2; need(mid) <= total {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	for _, i := range admitted {
		grants[i] = share(present[i], lo)
	}
	return grants
}

// checkInvariants verifies the allocation contract: grants aligned with
// input, each 0 or within [min, max], total within capacity.
func checkInvariants(t *testing.T, name string, present []*query.Query, grants []int, total int) {
	t.Helper()
	if len(grants) != len(present) {
		t.Fatalf("%s: %d grants for %d queries", name, len(grants), len(present))
	}
	sum := 0
	for i, g := range grants {
		if g != 0 && (g < present[i].MinMem || g > present[i].MaxMem) {
			t.Fatalf("%s: grant %d outside [%d,%d]", name, g, present[i].MinMem, present[i].MaxMem)
		}
		sum += g
	}
	if sum > total {
		t.Fatalf("%s: granted %d > total %d", name, sum, total)
	}
}

func TestMaxGrantsAllOrNothing(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 40, 1200), q(2, 20, 40, 1200), q(3, 30, 40, 700),
	}
	grants := allocate(Max{}, present, 2560)
	checkInvariants(t, "Max", present, grants, 2560)
	if grants[0] != 1200 || grants[1] != 1200 {
		t.Fatalf("two max demands fit: %v", grants)
	}
	if grants[2] != 0 {
		t.Fatalf("third query cannot fit (160 pages left): %v", grants)
	}
}

func TestMaxSkipsOversizedButServesSmaller(t *testing.T) {
	// ED order: the big query first. It doesn't fit, a smaller later one
	// does — Max admits as many max allocations as memory permits.
	present := []*query.Query{q(1, 10, 40, 3000), q(2, 20, 40, 1000)}
	grants := allocate(Max{}, present, 2560)
	if grants[0] != 0 || grants[1] != 1000 {
		t.Fatalf("grants %v", grants)
	}
}

func TestMinMaxTwoPass(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 40, 1300), q(2, 20, 40, 1300), q(3, 30, 40, 1300),
	}
	grants := allocate(MinMaxN{}, present, 2560)
	checkInvariants(t, "MinMax", present, grants, 2560)
	// Pass 1 reserves 3×40 = 120; pass 2 tops q1 to 1300, then q2 gets
	// the rest: 2560−120−1260 = 1180 extra ⇒ 1220; q3 stays at min.
	if grants[0] != 1300 {
		t.Fatalf("most urgent should reach max: %v", grants)
	}
	if grants[1] != 1220 {
		t.Fatalf("second query should land between min and max: %v", grants)
	}
	if grants[2] != 40 {
		t.Fatalf("least urgent stays at min: %v", grants)
	}
}

func TestMinMaxNLimit(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 40, 100), q(2, 20, 40, 100), q(3, 30, 40, 100), q(4, 40, 40, 100),
	}
	grants := allocate(MinMaxN{N: 2}, present, 10_000)
	checkInvariants(t, "MinMax-2", present, grants, 10_000)
	if grants[0] != 100 || grants[1] != 100 {
		t.Fatalf("admitted queries should reach max: %v", grants)
	}
	if grants[2] != 0 || grants[3] != 0 {
		t.Fatalf("MPL limit 2 violated: %v", grants)
	}
}

func TestMinMaxAdmissionByPriority(t *testing.T) {
	// Memory fits only one minimum: the most urgent wins.
	present := []*query.Query{q(1, 10, 60, 100), q(2, 20, 60, 100)}
	grants := allocate(MinMaxN{}, present, 100)
	if grants[0] != 100 || grants[1] != 0 {
		t.Fatalf("grants %v", grants)
	}
}

func TestProportionalEqualFractions(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 10, 1000), q(2, 20, 10, 500),
	}
	grants := allocate(ProportionalN{}, present, 750)
	checkInvariants(t, "Proportional", present, grants, 750)
	// φ = 0.5: 500 and 250.
	f0 := float64(grants[0]) / 1000
	f1 := float64(grants[1]) / 500
	if f0 < 0.45 || f0 > 0.55 || f1 < 0.45 || f1 > 0.55 {
		t.Fatalf("fractions differ: %v (%.2f vs %.2f)", grants, f0, f1)
	}
}

func TestProportionalFloorsAtMinimum(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 200, 1000), // φ·1000 < 200 would violate the floor
		q(2, 20, 10, 2000),
	}
	grants := allocate(ProportionalN{}, present, 400)
	checkInvariants(t, "Proportional", present, grants, 400)
	if grants[0] < 200 {
		t.Fatalf("minimum floor violated: %v", grants)
	}
}

func TestProportionalFullFit(t *testing.T) {
	present := []*query.Query{q(1, 10, 10, 100), q(2, 20, 10, 100)}
	grants := allocate(ProportionalN{}, present, 1000)
	if grants[0] != 100 || grants[1] != 100 {
		t.Fatalf("abundant memory should give everyone max: %v", grants)
	}
}

func TestSortByPriority(t *testing.T) {
	qs := []*query.Query{q(3, 30, 1, 1), q(1, 10, 1, 1), q(2, 20, 1, 1), q(4, 10, 1, 1)}
	SortByPriority(qs)
	// Deadline order; ties by id.
	wantIDs := []int64{1, 4, 2, 3}
	for i, w := range wantIDs {
		if qs[i].ID != w {
			t.Fatalf("order %v", qs)
		}
	}
}

// TestAllocatorsProperty: on random inputs every allocator keeps the
// allocation contract and grants exactly what the reference grants,
// writing into one grants buffer reused, dirty, across all calls.
func TestAllocatorsProperty(t *testing.T) {
	allocs := []Allocator{Max{}, MinMaxN{}, MinMaxN{N: 3}, ProportionalN{}, ProportionalN{N: 2}}
	var buf []int
	f := func(seeds []uint16, totalSeed uint16) bool {
		total := int(totalSeed%5000) + 100
		var present []*query.Query
		for i, s := range seeds {
			if i >= 30 {
				break
			}
			min := int(s%50) + 2
			max := min + int(s%2000)
			present = append(present, q(int64(i+1), float64(s%300), min, max))
		}
		SortByPriority(present)
		for _, a := range allocs {
			for len(buf) < len(present) {
				buf = append(buf, -7)
			}
			grants := buf[:len(present)]
			a.Allocate(present, total, grants)
			if !slices.Equal(grants, reference(a, present, total)) {
				return false
			}
			sum := 0
			for i, g := range grants {
				if g != 0 && (g < present[i].MinMem || g > present[i].MaxMem) {
					return false
				}
				sum += g
			}
			if sum > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Allocator{
		"Max":            Max{},
		"MinMax":         MinMaxN{},
		"MinMax-7":       MinMaxN{N: 7},
		"Proportional":   ProportionalN{},
		"Proportional-3": ProportionalN{N: 3},
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Errorf("Name() = %q, want %q", a.Name(), want)
		}
	}
}

// BenchmarkAllocate replans 40 present queries, more than fit in
// memory at their maxima, into one reused grants slice: the per-replan
// cost of each static policy, which must not allocate.
func BenchmarkAllocate(b *testing.B) {
	present := make([]*query.Query, 40)
	for i := range present {
		min := 20 + i%50
		present[i] = q(int64(i+1), float64(10*i), min, min+(i*37)%1200)
	}
	grants := make([]int, len(present))
	for _, a := range []Allocator{Max{}, MinMaxN{}, ProportionalN{}} {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Allocate(present, 2560, grants)
			}
		})
	}
}
