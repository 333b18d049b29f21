// Package simtest holds helpers for tests of code built on the
// simulation kernel.
package simtest

import "pmm/internal/sim"

// At schedules fn to run after delay simulated seconds. The event takes
// the kernel's next sequence number at the call, as every event does,
// so it orders among equal times exactly where it was scheduled. Each
// call registers a completer of its own, which suits tests but not hot
// loops. A negative or NaN delay panics.
func At(k *sim.Kernel, delay float64, fn func()) {
	k.AtComplete(delay, k.RegisterCompleter(event(fn)), true)
}

// event is a Completer that runs a function.
type event func()

func (e event) Complete(bool) { e() }
