package sim_test

import (
	"fmt"

	"pmm/internal/sim"
)

// A process is a frame machine; Script strings ad-hoc stages together.
// Each stage that waits arms one wait and parks, and the next stage
// receives the wait's outcome. A Start* call that finishes within the
// call reports entered=false, and the stage goes on in the same turn:
// here the idle CPU serves the lone request at once, its completion
// being provably the next event.
func ExampleKernel_Spawn() {
	k := sim.NewKernel()
	cpu := sim.NewServer(k, "cpu")
	var p *sim.Proc
	served := func(m *sim.Machine, ok bool) sim.Status {
		fmt.Printf("t=%g: served (ok=%v)\n", p.Now(), ok)
		return m.Return(ok)
	}
	p = k.Spawn("job", &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
		func(m *sim.Machine, _ bool) sim.Status {
			if !p.StartHold(1.5) {
				return m.Return(false) // a pending interrupt consumed the hold
			}
			return sim.Park
		},
		func(m *sim.Machine, ok bool) sim.Status {
			fmt.Printf("t=%g: held (ok=%v)\n", p.Now(), ok)
			if entered, ok := cpu.StartUse(p, 0, 2); !entered {
				return served(m, ok) // the last stage, run in this turn
			}
			return sim.Park
		},
		served,
	}})
	k.Drain()
	fmt.Printf("t=%g: done, dead=%v\n", k.Now(), p.Dead())
	// Output:
	// t=1.5: held (ok=true)
	// t=3.5: served (ok=true)
	// t=3.5: done, dead=true
}
