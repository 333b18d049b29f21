package join

import (
	"testing"

	"pmm/internal/buffer"
	"pmm/internal/catalog"
	"pmm/internal/cpu"
	"pmm/internal/disk"
	"pmm/internal/query"
	"pmm/internal/sim"
)

// BenchmarkJoinBlocks runs one solo join of the paper's baseline
// (Medium class: ‖R‖ = 1200 and ‖S‖ = 6000 pages, the middle of its
// size ranges; 10 disks, 40 MIPS, M = 2560, F = 1.1) to completion per
// iteration, on an arena-backed kernel reset between iterations as a
// sweep worker does; building the system is not timed. At maximum
// memory it is one pass: every block visits adaptation, late expansion
// and the spool flushes and finds nothing to do. At minimum memory
// every partition is contracted, so blocks spool and the cleanup pass
// reads them back. Either run failing its I/O shape fails the
// benchmark.
func BenchmarkJoinBlocks(b *testing.B) {
	const rPages, sPages, f, tpp = 1200, 6000, 1.1, 40
	dp := disk.DefaultParams()
	groups := []catalog.GroupSpec{
		{RelPerDisk: 1, SizeRange: [2]int{rPages, rPages}},
		{RelPerDisk: 1, SizeRange: [2]int{sPages, sPages}},
	}
	min, max := MemoryNeeds(rPages, f)
	for _, mem := range []struct {
		name  string
		alloc int
	}{{"mem=min", min}, {"mem=max", max}} {
		b.Run(mem.name, func(b *testing.B) {
			arena := sim.NewArena()
			op := New(f, tpp, dp.BlockSize)
			b.ReportAllocs()
			onePass := (rPages+dp.BlockSize-1)/dp.BlockSize + (sPages+dp.BlockSize-1)/dp.BlockSize
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				arena.Reset()
				k := sim.NewKernelIn(arena)
				m, err := disk.NewManager(k, dp, catalog.CylindersNeeded(groups, dp.CylinderSize), 1)
				if err != nil {
					b.Fatal(err)
				}
				cat, err := catalog.Build(m, groups, tpp, 1)
				if err != nil {
					b.Fatal(err)
				}
				env := &query.Env{K: k, CPU: cpu.New(k, 40), Disks: m, Pool: buffer.NewPool(2560)}
				q := &query.Query{
					ID: 1, Kind: query.HashJoin,
					R: cat.Group(0)[0], S: cat.Group(1)[0],
					Deadline: 1e9, MinMem: min, MaxMem: max, Alloc: mem.alloc,
				}
				ok := false
				query.Launch(k, "join", &query.Exec{Env: env, Q: q}, op, func(r bool) { ok = r })
				b.StartTimer()
				k.Drain()
				if !ok {
					b.Fatal("join aborted")
				}
				spooled := env.IOBreakdown.SpoolWrite > 0
				if onePassRun := q.IOCount == onePass && !spooled; onePassRun != (mem.alloc == max) {
					b.Fatalf("%d I/Os, spooled=%v; one pass (%d I/Os) must happen exactly at maximum memory", q.IOCount, spooled, onePass)
				}
			}
		})
	}
}
