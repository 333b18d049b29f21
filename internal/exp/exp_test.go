package exp

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestReportRender(t *testing.T) {
	r := &Report{
		ID:     "figX",
		Title:  "Demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  []string{"a note"},
	}
	out := r.Render()
	if !strings.Contains(out, "== figX: Demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatalf("missing note: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, two rows, note
		t.Fatalf("got %d lines", len(lines))
	}
	// Columns aligned: header and rows start the second column at the
	// same offset.
	idx := strings.Index(lines[1], "long-column")
	if idx < 0 {
		t.Skip("header layout changed")
	}
}

func TestBaselineDriverSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed driver")
	}
	reports, err := Baseline(Options{Seed: 1, Quick: true, Horizon: 900})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, r := range reports {
		ids[r.ID] = true
		if len(r.Rows) == 0 {
			t.Fatalf("report %s has no rows", r.ID)
		}
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "table7", "fig7"} {
		if !ids[want] {
			t.Fatalf("missing report %s (have %v)", want, ids)
		}
	}
}

func TestMinMaxNSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed driver")
	}
	reports, err := MinMaxNSweep(Options{Seed: 1, Quick: true, Horizon: 900})
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.ID != "fig11" {
		t.Fatalf("id %s", rep.ID)
	}
	// 5 quick N values plus Max and PMM reference rows.
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rep.Rows))
	}
}

func TestWorkloadChangesDriverSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed driver")
	}
	reports, err := WorkloadChanges(Options{Seed: 1, Quick: true, Horizon: 18000})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 { // figs 12, 13, 14, 15
		t.Fatalf("got %d reports", len(reports))
	}
	if reports[3].ID != "fig15" {
		t.Fatalf("last report %s", reports[3].ID)
	}
}

// TestBaselineDeltaColumn pins the paired-difference column: fig3 must
// carry a PMM−MinMax cell per rate, signed, and with a CI half-width
// when replicated.
func TestBaselineDeltaColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed driver")
	}
	reports, err := Baseline(Options{Seed: 1, Quick: true, Horizon: 600, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var fig3 *Report
	for _, r := range reports {
		if r.ID == "fig3" {
			fig3 = r
		}
	}
	if fig3 == nil {
		t.Fatal("no fig3 report")
	}
	if got := fig3.Header[len(fig3.Header)-1]; got != "PMM−MinMax" {
		t.Fatalf("last column = %q, want the paired delta", got)
	}
	for _, row := range fig3.Rows {
		cell := row[len(row)-1]
		if len(row) != len(fig3.Header) {
			t.Fatalf("row %v shorter than header", row)
		}
		if cell[0] != '+' && cell[0] != '-' {
			t.Fatalf("delta cell %q not signed", cell)
		}
		if !strings.Contains(cell, "±") {
			t.Fatalf("delta cell %q lacks a CI at reps=2", cell)
		}
	}
}

func TestRunAllParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed driver")
	}
	// The parallel runner must give identical results across invocations.
	run := func() string {
		reports, err := UtilLowSensitivity(Options{Seed: 3, Horizon: 600})
		if err != nil {
			t.Fatal(err)
		}
		return reports[0].Render()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("parallel runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestDriversDeterministicAcrossWorkers pins the sweep-engine guarantee
// at the driver level: a replicated experiment renders byte-identically
// whether the engine runs serially or on every CPU.
func TestDriversDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed driver")
	}
	render := func(workers int) string {
		reports, err := Baseline(Options{Seed: 5, Quick: true, Horizon: 600, Reps: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range reports {
			b.WriteString(r.Render())
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(runtime.NumCPU())
	if serial != parallel {
		t.Fatalf("reports diverge across worker counts:\n%s\nvs\n%s", serial, parallel)
	}
	// Replicated cells must actually carry confidence half-widths.
	if !strings.Contains(serial, "±") {
		t.Fatalf("reps=2 report lacks ± cells:\n%s", serial)
	}
}

// TestReplicationDefaultsMatchSingleRun guards the refactor: at the
// default Reps (1), a driver's report must equal the report produced by
// an explicit 1-replicate run — the seed drivers' exact output.
func TestReplicationDefaultsMatchSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed driver")
	}
	a, err := UtilLowSensitivity(Options{Seed: 3, Horizon: 600})
	if err != nil {
		t.Fatal(err)
	}
	b, err := UtilLowSensitivity(Options{Seed: 3, Horizon: 600, Reps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := a[0].Render(), b[0].Render(); ra != rb {
		t.Fatalf("default options diverge from explicit 1-rep/1-worker:\n%s\nvs\n%s", ra, rb)
	}
	if strings.Contains(a[0].Render(), "±") {
		t.Fatal("unreplicated report must not carry ± cells")
	}
}

// TestAllDriversTinyHorizon runs every driver once, through All, with
// Tenants set so that every driver returns its reports. The table and
// All must both list every report id in paper order; since Run rejects
// a report the table does not declare for its driver, each driver then
// returned exactly its declared ids. Run must render the reports it
// selects exactly as All does.
func TestAllDriversTinyHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment driver")
	}
	paper := []string{"fig3", "fig4", "fig5", "table7", "fig7", "fig6",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"sec5.4", "fig16", "fig17", "fig18", "ext-fairness", "sec5.7",
		"overload", "tenants"}
	var declared []string
	for _, d := range drivers {
		declared = append(declared, d.ids...)
	}
	if !slices.Equal(declared, paper) {
		t.Fatalf("the table declares %v, want %v", declared, paper)
	}

	o := Options{Seed: 2, Quick: true, Horizon: 300, Tenants: 2}
	reports, err := All(o)
	if err != nil {
		t.Fatal(err)
	}
	rendered := map[string]string{}
	for _, r := range reports {
		if r.ID == "" || r.Title == "" || len(r.Header) == 0 {
			t.Fatalf("malformed report %+v", r)
		}
		// Titles are plain strings, never format strings.
		if strings.Contains(r.Title, "%%") {
			t.Errorf("report %s title %q carries a literal %%%%", r.ID, r.Title)
		}
		if _, dup := rendered[r.ID]; dup {
			t.Fatalf("duplicate report id %s", r.ID)
		}
		rendered[r.ID] = r.Render()
		if len(rendered[r.ID]) == 0 {
			t.Fatalf("report %s renders empty", r.ID)
		}
	}
	if got := reportIDs(reports); !slices.Equal(got, paper) {
		t.Fatalf("All returned %v, want %v", got, paper)
	}

	// A selection runs only its drivers and comes back in paper order,
	// whatever order it was asked in.
	only := []string{"tenants", "sec5.4", "fig9", "fig6"}
	selected, err := Run(o, only)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range selected {
		if r.Render() != rendered[r.ID] {
			t.Errorf("selected %s renders differently from All's:\n%s\nvs\n%s", r.ID, r.Render(), rendered[r.ID])
		}
	}
	if got, want := reportIDs(selected), []string{"fig6", "fig9", "sec5.4", "tenants"}; !slices.Equal(got, want) {
		t.Fatalf("Run(%v) returned %v, want %v", only, got, want)
	}
}

func reportIDs(reports []*Report) []string {
	var ids []string
	for _, r := range reports {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestCheckRejectsUnproducibleIDs: an id no driver returns, or one its
// driver cannot produce under the options, is an error naming it.
func TestCheckRejectsUnproducibleIDs(t *testing.T) {
	for _, c := range []struct {
		o    Options
		ids  []string
		want string
	}{
		{Options{}, []string{"fig3", "nosuch"}, `"nosuch"`},
		{Options{}, []string{"tenants"}, `"tenants"`},
		{Options{Tenants: 1}, []string{"tenants"}, `"tenants"`},
	} {
		err := Check(c.o, c.ids)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%v): err = %v, want one naming %s", c.ids, err, c.want)
		}
	}
	if err := Check(Options{Tenants: 2}, []string{"tenants", "fig3", "ext-fairness"}); err != nil {
		t.Errorf("producible ids rejected: %v", err)
	}
}
