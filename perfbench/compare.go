package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain reads two result sets — files, or directories of files, of
// captured benchmark output — and prints per workload and end-to-end metric
// each side's median and quartiles, the share of pairs the second side won
// and a verdict under BENCHMARK.json's bounds, then the per-layer medians of
// the traced runs and the tracing overhead of each side.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result sets (before, after), got %d", len(args))
	}
	defs, err := loadDefs("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	compareSets(defs, a, b, w)
	return nil
}

// loadResults collects the RESULT lines of a file or of every file in a
// directory, in file and line order.
func loadResults(path string) ([]*result, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		sc.Buffer(make([]byte, 1<<16), 1<<26)
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), "RESULT ")
			if !ok {
				continue
			}
			r := &result{}
			if err := json.Unmarshal([]byte(line), r); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no RESULT lines", path)
	}
	return out, nil
}

func compareSets(defs *benchDefs, a, b []*result, w io.Writer) {
	names := map[string]bool{}
	for _, r := range append(append([]*result(nil), a...), b...) {
		names[r.Workload] = true
	}
	for _, wl := range sortedKeys(names) {
		ua, ub := pick(a, wl, false), pick(b, wl, false)
		fmt.Fprintf(w, "== %s: %d untraced runs before, %d after\n", wl, len(ua), len(ub))
		if len(ua) > 0 && len(ub) > 0 {
			fmt.Fprintf(w, "%-14s %-22s %-30s %-30s %6s  %s\n", "metric", "as", "before median [q1, q3]", "after median [q1, q3]", "won", "verdict")
			for _, d := range defs.EndToEnd {
				xa, xb := gateValues(ua, d.Name), gateValues(ub, d.Name)
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				fmt.Fprintf(w, "%-14s %-22s %-30s %-30s %5.0f%%  %s\n", d.Name, alias(ua, d.Name),
					fmtQuartiles(xa), fmtQuartiles(xb), 100*wonShare(d, xa, xb), verdict(d, xa, xb))
			}
		}
		ta, tb := pick(a, wl, true), pick(b, wl, true)
		if len(ta) > 0 || len(tb) > 0 {
			fmt.Fprintf(w, "-- per layer (traced runs: %d before, %d after): before median, after median, change\n", len(ta), len(tb))
			keys := map[string]bool{}
			for _, r := range append(append([]*result(nil), ta...), tb...) {
				for k := range r.Layers {
					keys[k] = true
				}
				for k := range r.Extra {
					keys[k] = true
				}
			}
			for _, k := range sortedKeys(keys) {
				ma, mb := median(layerValues(ta, k)), median(layerValues(tb, k))
				change := "-"
				if !math.IsNaN(ma) && !math.IsNaN(mb) && ma != 0 {
					change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
				}
				fmt.Fprintf(w, "   %-40s %14.6g %14.6g %8s\n", k, ma, mb, change)
			}
		}
		for _, side := range []struct {
			name  string
			u, tr []*result
		}{{"before", ua, ta}, {"after", ub, tb}} {
			if len(side.u) == 0 || len(side.tr) == 0 {
				continue
			}
			var parts []string
			for _, d := range defs.EndToEnd {
				mu, mt := median(gateValues(side.u, d.Name)), median(gateValues(side.tr, d.Name))
				if !math.IsNaN(mu) && !math.IsNaN(mt) && mu != 0 {
					parts = append(parts, fmt.Sprintf("%s %+.1f%%", d.Name, 100*(mt-mu)/mu))
				}
			}
			fmt.Fprintf(w, "-- tracing overhead %s (traced median vs untraced): %s\n", side.name, strings.Join(parts, ", "))
		}
	}
}

func pick(rs []*result, workload string, traced bool) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func gateValues(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Gate[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func layerValues(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Layers[name]; ok {
			out = append(out, v)
		} else if v, ok := r.Extra[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// alias is the workload's own name for an end-to-end slot.
func alias(rs []*result, slot string) string {
	for _, m := range rs[0].Named {
		if m.Slot == slot {
			return m.Name
		}
	}
	return ""
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method; with fewer than two samples every quartile is the one.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func fmtQuartiles(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

// better reports whether x is better than y under d.
func better(d metricDef, x, y float64) bool {
	if d.Better == "higher" {
		return x > y
	}
	return x < y
}

// wonShare pairs the runs in order and returns the share of pairs in which
// the after side is better; ties count for neither side.
func wonShare(d metricDef, before, after []float64) float64 {
	n := min(len(before), len(after))
	won := 0
	for i := 0; i < n; i++ {
		if better(d, after[i], before[i]) {
			won++
		}
	}
	return float64(won) / float64(n)
}

// verdict applies the benchmark's rule: improved when the after side wins at
// least nine tenths of the pairs and the medians differ by more than the
// before side's quartile distance; unresolved when either side spreads wider
// than the bound (unless every after run beats every before run); regressed
// when the after median is worse by more than the bound; otherwise no worse.
func verdict(d metricDef, before, after []float64) string {
	ma, mb := median(before), median(after)
	q1, _, q3 := quartiles(before)
	b1, _, b3 := quartiles(after)
	if wonShare(d, before, after) >= 0.9 && math.Abs(mb-ma) > q3-q1 {
		return "improved"
	}
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	if (q3-q1)/ma > d.Bound || (b3-b1)/mb > d.Bound {
		allBetter := true
		for _, x := range after {
			for _, y := range before {
				allBetter = allBetter && better(d, x, y)
			}
		}
		if !allBetter {
			return fmt.Sprintf("unresolved (spread above the %.0f%% bound)", 100*d.Bound)
		}
		return "no worse"
	}
	if worse > d.Bound {
		return fmt.Sprintf("regressed (%+.1f%%, bound %.0f%%)", 100*worse, 100*d.Bound)
	}
	return "no worse"
}
