// Command pmmbench is the simulator's end-to-end benchmark. It runs five
// workloads drawn from the paper's evaluation through pmm.Sweep, checks
// every output, and prints host-time metrics by name with their units;
// with -trace 1 it prints per-layer metrics from a traced run instead.
//
//	go run ./pmmbench -seed 1                 # all five, one process each
//	go run ./pmmbench -seed 1 -trace 1        # per-layer metrics
//	go run ./pmmbench -workload fig3-cold -seed 3 -seconds 15
//	go run ./pmmbench -seed 1 -runs 5 -out set.json
//	go run ./pmmbench -compare BASE_DIR HEAD_DIR
//
// With -workload the run happens in this process and the last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. See ../README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// procs is the GOMAXPROCS of every measured process: two sweep workers,
// or two shards, each with a CPU of its own.
const procs = 2

func main() {
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	name := flag.String("workload", "", "run only this workload, in this process (default: all five, one process each)")
	seconds := flag.Float64("seconds", 8, "length of each workload's measured phase, in seconds (at least one cycle runs)")
	traceN := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	dir := flag.String("dir", ".bench_work", "scratch directory for result stores and span files")
	out := flag.String("out", "", "write the machine-written run record (JSON) to this file")
	runs := flag.Int("runs", 1, "run every workload this many times (all five only)")
	compare := flag.Bool("compare", false, "compare two directories of -out records: -compare BASE_DIR HEAD_DIR")
	flag.Parse()

	if *traceN != 0 && *traceN != 1 {
		fatalf("-trace must be 0 or 1")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceN == 1, dir: *dir}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two directories")
		}
		if err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
	case *name != "":
		os.Exit(runChild(*name, o, *out))
	default:
		os.Exit(runAll(o, *runs, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pmmbench: "+format+"\n", args...)
	os.Exit(2)
}

// runChild measures one workload in this process and prints its result
// line last. It returns the exit code.
func runChild(name string, o options, out string) int {
	runtime.GOMAXPROCS(procs)
	w, err := findWorkload(name, 0)
	if err != nil {
		fatalf("%v", err)
	}
	rec, err := runWorkload(w, o)
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	printRun(rec)
	if out != "" {
		if err := writeJSON(out, newSetRecord(o, []runRecord{*rec})); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted,
		"failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// printRun prints a run's metrics by name with their units, in the
// declared order, then its digest and any failed check.
func printRun(rec *runRecord) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := rec.Metrics[d.name]; ok {
			fmt.Printf("%-16s %-24s %14.6g %s\n", rec.Workload, d.name, v.Value, v.Unit)
		}
	}
	for _, d := range perLayer {
		// An untraced run keeps its raw host.* figures outside the metrics.
		if k, ok := strings.CutPrefix(d.name, "host."); ok && !rec.Trace {
			fmt.Printf("%-16s %-24s %14.6g %s\n", rec.Workload, d.name, rec.Host[k], d.unit)
		}
	}
	fmt.Printf("%-16s %-24s %14d of %d\n", rec.Workload, "ops_failed", rec.Failed, rec.Attempted)
	fmt.Printf("%-16s %-24s %s\n", rec.Workload, "sim_digest", rec.Digest)
	for _, f := range rec.Failures {
		fmt.Printf("%-16s FAIL %s\n", rec.Workload, f)
	}
}

// runAll runs every workload runs times, each in a fresh process of this
// binary, one at a time, and prints the medians. It returns the exit code.
func runAll(o options, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	code := 0
	var recs []runRecord
	for i := 0; i < runs; i++ {
		for _, w := range workloads(0) {
			rec, err := runProcess(self, w.name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmmbench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			if !rec.Correct {
				code = 1
			}
			recs = append(recs, *rec)
		}
	}
	set := newSetRecord(o, recs)
	if runs > 1 {
		printSummary(set)
	}
	// Every run of one workload at one seed must simulate the same thing.
	digests := map[string]string{}
	for _, r := range recs {
		if d, ok := digests[r.Workload]; ok && d != r.Digest {
			fmt.Printf("%-16s FAIL sim_digest differs across runs\n", r.Workload)
			code = 1
		}
		digests[r.Workload] = r.Digest
	}
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			fatalf("%v", err)
		}
	}
	return code
}

// runProcess runs one workload in a child process and returns its record.
func runProcess(self, name string, o options) (*runRecord, error) {
	tmp := filepath.Join(o.dir, fmt.Sprintf("record-%s-%d.json", name, os.Getpid()))
	defer os.Remove(tmp)
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-dir", o.dir, "-out", tmp)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	// Echo everything but the result line, which the record repeats.
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	for _, l := range lines[:max(len(lines)-1, 0)] {
		fmt.Println(l)
	}
	var set setRecord
	raw, rerr := os.ReadFile(tmp)
	if rerr == nil {
		rerr = json.Unmarshal(raw, &set)
	}
	switch {
	case rerr == nil && len(set.Runs) == 1:
		return &set.Runs[0], nil
	case err != nil:
		return nil, err
	default:
		return nil, fmt.Errorf("no run record: %v", rerr)
	}
}

// hostFacts identify the machine and build a record was measured on.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GitHead    string `json:"git_head,omitempty"`
}

func host() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Outside a git checkout the head is simply unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitHead = string(bytes.TrimSpace(b))
	}
	return h
}

// stat summarizes one metric over the runs of a set.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// setRecord is the machine-written record of a set of runs.
type setRecord struct {
	Host    hostFacts                  `json:"host"`
	Seed    int64                      `json:"seed"`
	Seconds float64                    `json:"seconds"`
	Trace   bool                       `json:"trace"`
	Runs    []runRecord                `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"`
}

func newSetRecord(o options, runs []runRecord) setRecord {
	s := setRecord{Host: host(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Runs: runs, Summary: map[string]map[string]stat{}}
	for _, r := range runs {
		m := s.Summary[r.Workload]
		if m == nil {
			m = map[string]stat{}
			s.Summary[r.Workload] = m
		}
		for name, v := range r.Metrics {
			st := m[name]
			st.Unit = v.Unit
			st.Values = append(st.Values, v.Value)
			m[name] = st
		}
	}
	for _, m := range s.Summary {
		for name, st := range m {
			st.N = len(st.Values)
			st.Median, st.Q1, st.Q3 = median(st.Values), quantile(st.Values, 0.25), quantile(st.Values, 0.75)
			m[name] = st
		}
	}
	return s
}

// printSummary prints each workload's medians and quartiles over the set.
func printSummary(s setRecord) {
	names := make([]string, 0, len(s.Summary))
	for w := range s.Summary {
		names = append(names, w)
	}
	sort.Strings(names)
	defs := endToEnd
	if s.Trace {
		defs = perLayer
	}
	fmt.Printf("\n%-16s %-24s %14s %14s %14s %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, w := range names {
		for _, d := range defs {
			if st, ok := s.Summary[w][d.name]; ok {
				fmt.Printf("%-16s %-24s %14.6g %14.6g %14.6g %s (n=%d)\n", w, d.name, st.Median, st.Q1, st.Q3, st.Unit, st.N)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
