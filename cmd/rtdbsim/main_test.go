package main

import (
	"bytes"
	"strings"
	"testing"

	"pmm"
	"pmm/internal/core"
)

// TestPrintTraceUtilAndCurve: -pmm-trace prints each batch's
// bottleneck utilization and projection curve, the two columns fig6
// prints after time, mode, target, realized MPL and batch miss ratio,
// and names both in its header.
func TestPrintTraceUtilAndCurve(t *testing.T) {
	res := &pmm.Results{PMMTrace: []pmm.TracePoint{
		{Time: 520, Mode: core.ModeMinMax, Target: 6, Realized: 4.2, MissRatio: 0.3, Util: 0.57, Curve: "RU"},
		{Time: 1477, Mode: core.ModeMinMax, Target: 4, Realized: 8, MissRatio: 0.9, Util: 0.785, Curve: "bowl"},
	}}
	var buf bytes.Buffer
	printTrace(&buf, true, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("printed %d lines, want a header and 2 points:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "util%") || !strings.Contains(lines[0], "curve") {
		t.Errorf("header %q does not name the util%% and curve columns", lines[0])
	}
	for i, want := range []string{
		"520 MinMax 6 4.20 30.0% 57.0% RU",
		"1477 MinMax 4 8.00 90.0% 78.5% bowl",
	} {
		if got := strings.Join(strings.Fields(lines[i+1]), " "); got != want {
			t.Errorf("point %d printed %q, want %q", i, got, want)
		}
	}
}
