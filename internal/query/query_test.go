package query

import (
	"testing"

	"pmm/internal/buffer"
	"pmm/internal/catalog"
	"pmm/internal/cpu"
	"pmm/internal/disk"
	"pmm/internal/sim"
	"pmm/internal/sim/simtest"
)

func newEnv(t *testing.T) (*sim.Kernel, *Env, *catalog.Relation) {
	t.Helper()
	k := sim.NewKernel()
	dp := disk.DefaultParams()
	dp.NumDisks = 2
	groups := []catalog.GroupSpec{{RelPerDisk: 1, SizeRange: [2]int{120, 120}}}
	m, err := disk.NewManager(k, dp, catalog.CylindersNeeded(groups, dp.CylinderSize), 5)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(m, groups, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{K: k, CPU: cpu.New(k, 40), Disks: m, Pool: buffer.NewPool(1000)}
	return k, env, cat.Group(0)[0]
}

func newQuery(rel *catalog.Relation) *Query {
	return &Query{ID: 1, Kind: HashJoin, R: rel, Deadline: 1e9,
		StandAlone: 10, MinMem: 5, MaxMem: 100, ReadIOs: 20, Alloc: 100}
}

// script spawns a process running the given stages with e bound
// to it. Each stage ends its turn like any frame step: park, call, or
// return; the next stage receives the outcome.
func script(k *sim.Kernel, e *Exec, stages ...func(m *sim.Machine, ok bool) sim.Status) *sim.Proc {
	p := k.Spawn("script", &sim.Script{Stages: stages})
	e.P = p
	e.Q.Proc = p
	return p
}

func TestReadRelCountsAndCaches(t *testing.T) {
	k, env, rel := newEnv(t)
	q := newQuery(rel)
	e := &Exec{Env: env, Q: q}
	var first int
	script(k, e,
		func(m *sim.Machine, ok bool) sim.Status {
			return e.CallReadRel(m, rel, 0, 120, 6)
		},
		func(m *sim.Machine, ok bool) sim.Status {
			if !ok {
				t.Error("read interrupted")
			}
			first = q.IOCount
			if first != 20 {
				t.Errorf("IOCount = %d, want 20 blocks", first)
			}
			// Second scan: the LRU holds the blocks (pool 1000 ≥ 20 keys).
			return e.CallReadRel(m, rel, 0, 120, 6)
		},
		func(m *sim.Machine, ok bool) sim.Status {
			if !ok {
				t.Error("second read interrupted")
			}
			if q.IOCount != first {
				t.Errorf("cached re-read issued %d extra I/Os", q.IOCount-first)
			}
			return m.Return(ok)
		},
	)
	k.Drain()
	hits, _, _ := env.Pool.Stats()
	if hits != 20 {
		t.Fatalf("LRU hits = %d, want 20", hits)
	}
}

func TestReadRelPartialBlock(t *testing.T) {
	k, env, rel := newEnv(t)
	q := newQuery(rel)
	e := &Exec{Env: env, Q: q}
	script(k, e,
		func(m *sim.Machine, ok bool) sim.Status {
			return e.CallReadRel(m, rel, 0, 7, 6) // 6 + 1
		},
		func(m *sim.Machine, ok bool) sim.Status {
			if !ok {
				t.Error("read interrupted")
			}
			return m.Return(ok)
		},
	)
	k.Drain()
	if q.IOCount != 2 {
		t.Fatalf("IOCount = %d, want 2", q.IOCount)
	}
}

func TestTempFileLifecycle(t *testing.T) {
	k, env, rel := newEnv(t)
	q := newQuery(rel)
	free0 := env.Disks.Disk(0).TempFreeCylinders() + env.Disks.Disk(1).TempFreeCylinders()
	e := &Exec{Env: env, Q: q}
	tf := new(TempFile)
	script(k, e,
		func(m *sim.Machine, ok bool) sim.Status {
			e.OpenTemp(tf, 60, rel)
			if tf.Capacity() < 60 {
				t.Errorf("capacity %d", tf.Capacity())
			}
			return tf.CallAppend(m, e, 30, 6)
		},
		func(m *sim.Machine, ok bool) sim.Status {
			if !ok {
				t.Error("append failed")
			}
			if tf.Written() != 30 {
				t.Errorf("written = %d", tf.Written())
			}
			return tf.CallRead(m, e, 0, 30, 6)
		},
		func(m *sim.Machine, ok bool) sim.Status {
			if !ok {
				t.Error("read failed")
			}
			tf.Close()
			tf.Close() // idempotent
			return m.Return(ok)
		},
	)
	k.Drain()
	if got := env.Disks.Disk(0).TempFreeCylinders() + env.Disks.Disk(1).TempFreeCylinders(); got != free0 {
		t.Fatalf("temp cylinders leaked: %d vs %d", got, free0)
	}
	if env.IOBreakdown.SpoolWrite != 30 || env.IOBreakdown.SpoolRead != 30 {
		t.Fatalf("breakdown %+v", env.IOBreakdown)
	}
}

func TestTempFileGrowsBeyondCapacity(t *testing.T) {
	k, env, rel := newEnv(t)
	q := newQuery(rel)
	e := &Exec{Env: env, Q: q}
	tf := new(TempFile)
	script(k, e,
		func(m *sim.Machine, ok bool) sim.Status {
			e.OpenTemp(tf, 10, rel)
			return tf.CallAppend(m, e, 50, 6) // outgrows the 10-page estimate
		},
		func(m *sim.Machine, ok bool) sim.Status {
			if !ok {
				t.Error("append failed")
			}
			if tf.Written() != 50 {
				t.Errorf("written = %d", tf.Written())
			}
			tf.Close()
			return m.Return(ok)
		},
	)
	k.Drain()
}

func TestWaitMemoryBlocksUntilGrant(t *testing.T) {
	k, env, rel := newEnv(t)
	q := newQuery(rel)
	q.Alloc = 0
	e := &Exec{Env: env, Q: q}
	var resumed float64
	script(k, e,
		func(m *sim.Machine, ok bool) sim.Status {
			return e.CallWaitMemory(m)
		},
		func(m *sim.Machine, ok bool) sim.Status {
			if !ok {
				t.Error("wait interrupted")
			}
			resumed = k.Now()
			return m.Return(ok)
		},
	)
	simtest.At(k, 3, func() {
		q.Alloc = 50
		if q.WantMem > 0 {
			q.Proc.Wake()
		}
	})
	k.Drain()
	if resumed != 3 {
		t.Fatalf("resumed at %g, want 3", resumed)
	}
}

func TestWaitMemoryInterrupted(t *testing.T) {
	k, env, rel := newEnv(t)
	q := newQuery(rel)
	q.Alloc = 0
	e := &Exec{Env: env, Q: q}
	var got *bool
	proc := script(k, e,
		func(m *sim.Machine, ok bool) sim.Status {
			return e.CallWaitMemory(m)
		},
		func(m *sim.Machine, ok bool) sim.Status {
			got = &ok
			return m.Return(ok)
		},
	)
	simtest.At(k, 1, func() { proc.Interrupt() })
	k.Drain()
	if got == nil || *got {
		t.Fatal("interrupted wait should return false")
	}
}

func TestQueryHelpers(t *testing.T) {
	q := &Query{Arrival: 10, Deadline: 110}
	if q.TimeConstraint() != 100 {
		t.Fatalf("constraint = %g", q.TimeConstraint())
	}
	if q.Prio() != 110 {
		t.Fatalf("prio = %g", q.Prio())
	}
	if HashJoin.String() != "hash-join" || ExternalSort.String() != "external-sort" {
		t.Fatal("type names")
	}
}
