package sim

import (
	"testing"

	"pmm/internal/trace"
)

// Trace-hook benchmarks: the typed-dispatch cycle of
// BenchmarkTypedDispatch with the trace sink explicitly absent and
// explicitly attached. Both must run at 0 allocs/op — disabled tracing
// is a nil check on the hot path, and an attached warmed Collector
// records into pre-grown buffers.

// BenchmarkTraceDisabled is the dispatch cycle with no sink: the cost
// of the nil checks the tracing hooks add to every kernel step.
func BenchmarkTraceDisabled(b *testing.B) {
	k := NewKernel()
	k.SetSink(nil)
	f := &holdOnlyFrame{}
	p := k.Spawn("dispatch", f)
	f.p = p
	k.Step() // spawn turn: machine parks in its hold
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step() // hold timer fires, wake delivered
		k.Step() // turn: machine re-arms its hold
	}
	b.StopTimer()
	p.Interrupt()
	k.Drain()
}

// BenchmarkTraceEnabled is the same cycle recording into a Collector.
// The Collector is warmed before timing and Reset (which keeps
// capacity) each iteration, so the steady state measured is append-
// into-grown-buffer — the cost tracing adds to a long run.
func BenchmarkTraceEnabled(b *testing.B) {
	k := NewKernel()
	c := trace.NewCollector()
	k.SetSink(c)
	f := &holdOnlyFrame{}
	p := k.Spawn("dispatch", f)
	f.p = p
	k.Step() // spawn turn: machine parks in its hold
	for i := 0; i < 256; i++ {
		k.Step()
		k.Step()
	}
	c.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step() // hold timer fires, wake delivered (recorded)
		k.Step() // turn: machine re-arms its hold (recorded)
		c.Reset()
	}
	b.StopTimer()
	p.Interrupt()
	k.Drain()
}
