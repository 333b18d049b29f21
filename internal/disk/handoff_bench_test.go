package disk

import (
	"math"
	"testing"

	"pmm/internal/sim"
)

// handoffFrame is an inline process issuing back-to-back sequential
// accesses against a proxied disk — the steady-state client of the
// disk-cut message path.
type handoffFrame struct {
	sim.FrameState
	t    sim.Task
	d    *Disk
	req  Request
	page int
}

func (f *handoffFrame) Step(m *sim.Machine, ok bool) sim.Status {
	for {
		switch f.PC {
		case 0:
			f.PC = 1
			var entered bool
			if entered, ok = f.d.StartAccessSeq(f.t, 1, 700, 6, 7, f.page, &f.req); entered {
				return sim.Park
			}
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.page += 6
			f.PC = 0
		}
	}
}

// BenchmarkDiskHandoff measures one full disk-cut access round trip:
// the home mirror's deterministic replay and held completion event, the
// request message into the remote kernel, the remote twin's dispatch
// and completion report, and the report placing the home event at its
// true time. One iteration is one served access, windowed exactly the
// way the rtdbs driver windows a cut run; the whole path must stay
// allocation-free in steady state, like every other kernel hot path.
func BenchmarkDiskHandoff(b *testing.B) {
	params := DefaultParams()
	params.NumDisks = 1
	hk := sim.NewKernel()
	m, err := NewManager(hk, params, 0, 42)
	if err != nil {
		b.Fatal(err)
	}
	out := NewOutbox(0)
	m.EnableProxy(out)
	rk := sim.NewKernel()
	srv, err := NewServer(rk, params, 42, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := m.Disk(0)
	f := &handoffFrame{d: d}
	f.t = hk.SpawnInline("client", f)

	// window advances both sides until the home disk has served target
	// accesses, mirroring the rtdbs diskCell round loop.
	window := func(target uint64) {
		for d.Served() < target {
			hk.SetRunCap(m.ProxyBound())
			hk.Run(math.MaxFloat64)
			reached := hk.Now()
			for _, msg := range out.Msgs {
				rk.DeliverMessage(srv.HandlerID(), msg)
			}
			out.Reset()
			rk.Run(reached)
			for _, msg := range srv.Outbox().Msgs {
				m.ApplyReport(msg)
			}
			srv.Outbox().Reset()
		}
	}
	window(64) // warm the slot, record, and outbox pools

	b.ReportAllocs()
	b.ResetTimer()
	window(64 + uint64(b.N))
	b.StopTimer()
	if d.Served() != 64+uint64(b.N) || d.Served() != srv.mgr.Disk(0).Served() {
		b.Fatalf("served %d home / %d remote, want %d",
			d.Served(), srv.mgr.Disk(0).Served(), 64+uint64(b.N))
	}
}
