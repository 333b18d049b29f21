package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareDirs reads the set records in two directories, pairs them in
// file-name order (pair i ran base and head back to back) and prints,
// for every end-to-end metric of every workload, both sides' medians and
// quartiles, the head's win fraction and a verdict:
//
//   - gain: at least minPairs pairs, head wins at least 9 in 10 of them
//     (ties count for neither) and the medians differ by more than the
//     base's quartile spread;
//   - regression: head's median is worse than the base's by more than
//     the metric's bound, with the base spread within the bound;
//   - unresolved: the base spread is wider than the bound and head runs
//     do not all beat base runs;
//   - no regression: otherwise.
func compareDirs(w io.Writer, baseDir, headDir string) error {
	base, err := readSets(baseDir)
	if err != nil {
		return err
	}
	head, err := readSets(headDir)
	if err != nil {
		return err
	}
	if len(base) != len(head) || len(base) == 0 {
		return fmt.Errorf("compare: %d base and %d head records; need equal, non-zero counts", len(base), len(head))
	}
	fmt.Fprintf(w, "%d pairs\n%-16s %-12s %12s %25s %12s %25s %6s  %s\n", len(base),
		"workload", "metric", "base median", "base [q1, q3]", "head median", "head [q1, q3]", "wins", "verdict")
	for _, wl := range workloads(0) {
		if _, ok := base[0].Summary[wl.name]; !ok {
			continue
		}
		var bf, hf int
		for i := range base {
			bf += failedOps(base[i], wl.name)
			hf += failedOps(head[i], wl.name)
		}
		for _, d := range endToEnd {
			var b, h []float64
			for i := range base {
				bv, bok := metricOf(base[i], wl.name, d.name)
				hv, hok := metricOf(head[i], wl.name, d.name)
				if bok && hok {
					b, h = append(b, bv), append(h, hv)
				}
			}
			if len(b) == 0 {
				continue
			}
			wins, verdict := judge(d, b, h)
			if verdict == "gain" && hf > bf {
				verdict = "no gain: more ops failed"
			}
			fmt.Fprintf(w, "%-16s %-12s %12.6g %25s %12.6g %25s %3d/%-2d  %s\n", wl.name, d.name,
				median(b), quartiles(b), median(h), quartiles(h), wins, len(b), verdict)
		}
		fmt.Fprintf(w, "%-16s %-12s %12d %25s %12d\n", wl.name, "ops_failed", bf, "", hf)
	}
	return nil
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("[%.6g, %.6g]", quantile(xs, 0.25), quantile(xs, 0.75))
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// judge applies the pairing rule to one metric; b[i] and h[i] are pair i.
func judge(d metricDef, b, h []float64) (wins int, verdict string) {
	better := func(x, y float64) bool { // x better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range b {
		if better(h[i], b[i]) {
			wins++
		}
	}
	mb, mh := median(b), median(h)
	iqr := quantile(b, 0.75) - quantile(b, 0.25)
	worse := (mh - mb) / mb
	if d.better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range h {
		for _, y := range b {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case len(b) >= minPairs && 10*wins >= 9*len(b) && better(mh, mb) && math.Abs(mh-mb) > iqr:
		return wins, "gain"
	case iqr/mb > d.bound && !allBetter:
		return wins, "unresolved"
	case worse > d.bound:
		return wins, "regression"
	}
	return wins, "no regression"
}

func readSets(dir string) ([]setRecord, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var sets []setRecord
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var s setRecord
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		sets = append(sets, s)
	}
	return sets, nil
}

// metricOf returns a workload's metric in a set: the median over its runs.
func metricOf(s setRecord, workload, metric string) (float64, bool) {
	st, ok := s.Summary[workload][metric]
	return st.Median, ok
}

func failedOps(s setRecord, workload string) int {
	n := 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}
