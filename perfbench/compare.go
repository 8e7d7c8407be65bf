package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain compares two sets of runs, parent and change, each a
// JSON-lines file of records written with --record (compare.sh makes them
// in alternating order). For every workload and end-to-end metric it
// prints each side's median and quartiles, the share of pairs the change
// won, and a verdict:
//
//   - improved: the change won at least nine tenths of the pairs (ties
//     count for neither) and the medians differ, in its favour, by more
//     than the parent's quartile distance; or every change run beat every
//     parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: either side's quartile distance exceeds the bound, so
//     "no worse" cannot be told from noise;
//   - no worse: otherwise.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	worse := false
	for _, wl := range sortedKeys(parent) {
		if len(change[wl]) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d parent runs, %d change runs\n", wl, len(parent[wl]), len(change[wl]))
		fmt.Fprintf(w, "  %-22s %34s %34s %6s  %s\n", "metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict")
		for _, d := range endToEnd {
			p, c := values(parent[wl], d.Name), values(change[wl], d.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(d, p, c)
			if v.verdict == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "  %-22s %34s %34s %5.0f%%  %s\n", d.Name, fmtQ(p), fmtQ(c), 100*v.won, v.verdict)
		}
	}
	if worse {
		return 3
	}
	return 0
}

type judgement struct {
	won     float64 // share of pairs the change won
	verdict string
}

// judge applies the verdict rule to one metric's paired runs.
func judge(d metricDef, parent, change []float64) judgement {
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	won := float64(wins) / float64(pairs)
	p1, pm, p3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worseBy := (cm - pm) / math.Abs(pm)
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case allBetter || (won >= 0.9 && better(cm, pm) && math.Abs(cm-pm) > p3-p1):
		return judgement{won, "improved"}
	case worseBy > d.Bound:
		return judgement{won, "worse"}
	case iqrShare(parent) > d.Bound || iqrShare(change) > d.Bound:
		return judgement{won, "unresolved"}
	default:
		return judgement{won, "no worse"}
	}
}

func fmtQ(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}

// readRecords loads untraced records grouped by workload, in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Env.Trace {
			out[r.Env.Workload] = append(out[r.Env.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
