package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The probes below read the program only from outside: the Prometheus text
// it already serves on /metrics, the kernel's view of its processes, the
// bytes it leaves in its state directory, and the benchmark's own clocks.

// promSeries is one sample line of a Prometheus text exposition.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is one scrape, keyed by the series' canonical name{labels}.
type promSnapshot map[string]promSeries

// parseProm parses the Prometheus text exposition format (version 0.0.4):
// comment and blank lines are skipped, label values may carry the \\, \" and
// \n escapes, and a trailing timestamp is ignored.
func parseProm(text string) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || l[0] == '#' {
			continue
		}
		s, err := parsePromLine(l)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[promKey(s.name, s.labels)] = s
	}
	return out, sc.Err()
}

func parsePromLine(l string) (promSeries, error) {
	s := promSeries{labels: map[string]string{}}
	i := strings.IndexAny(l, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", l)
	}
	s.name, l = l[:i], l[i:]
	if l[0] == '{' {
		l = l[1:]
		for {
			l = strings.TrimLeft(l, " ,")
			if l == "" {
				return s, fmt.Errorf("unterminated label set")
			}
			if l[0] == '}' {
				l = l[1:]
				break
			}
			eq := strings.IndexByte(l, '=')
			if eq <= 0 || len(l) < eq+2 || l[eq+1] != '"' {
				return s, fmt.Errorf("malformed label in %q", l)
			}
			key := strings.TrimSpace(l[:eq])
			var val strings.Builder
			j := eq + 2
			for ; j < len(l) && l[j] != '"'; j++ {
				if l[j] == '\\' && j+1 < len(l) {
					j++
					switch l[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(l[j])
					}
					continue
				}
				val.WriteByte(l[j])
			}
			if j == len(l) {
				return s, fmt.Errorf("unterminated label value for %s", key)
			}
			s.labels[key] = val.String()
			l = l[j+1:]
		}
	}
	fields := strings.Fields(l)
	if len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("want a value and an optional timestamp after %s", s.name)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value of %s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// promKey renders name{k="v",...} with the labels in key order.
func promKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// diff returns after minus before for every series of after; a series absent
// before counts from zero. Meaningful for counters and histogram buckets,
// sums and counts; gauges are carried as their difference too.
func (after promSnapshot) diff(before promSnapshot) promSnapshot {
	out := make(promSnapshot, len(after))
	for k, s := range after {
		d := s
		d.value -= before[k].value
		out[k] = d
	}
	return out
}

// sum adds the series of the given name whose labels include every pair of
// want.
func (p promSnapshot) sum(name string, want map[string]string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name && labelsMatch(s.labels, want) {
			total += s.value
		}
	}
	return total
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// histMean returns a histogram's mean observation and its count over the
// series matching want; the mean is NaN when nothing was observed.
func (p promSnapshot) histMean(name string, want map[string]string) (mean, count float64) {
	count = p.sum(name+"_count", want)
	if count == 0 {
		return math.NaN(), 0
	}
	return p.sum(name+"_sum", want) / count, count
}

// labelValues lists the distinct values label takes on series of name.
func (p promSnapshot) labelValues(name, label string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range p {
		if v, ok := s.labels[label]; ok && s.name == name && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// procMem is the resident memory of a process as /proc/<pid>/status reports
// it: VmRSS now and VmHWM, the peak since the process started.
type procMem struct{ rss, hwm int64 }

func readProcMem(pid int) (procMem, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procMem{}, err
	}
	return parseProcStatus(string(data))
}

func parseProcStatus(text string) (procMem, error) {
	var m procMem
	found := 0
	for _, line := range strings.Split(text, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || (name != "VmRSS" && name != "VmHWM") {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return m, fmt.Errorf("unexpected %s line %q", name, line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return m, fmt.Errorf("%s: %w", name, err)
		}
		if name == "VmRSS" {
			m.rss = kb << 10
		} else {
			m.hwm = kb << 10
		}
		found++
	}
	if found != 2 {
		return m, fmt.Errorf("status has no VmRSS/VmHWM lines")
	}
	return m, nil
}

// readProcWriteBytes returns write_bytes of /proc/<pid>/io: the bytes the
// process caused to be written to storage.
func readProcWriteBytes(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no write_bytes in /proc/%d/io", pid)
}

// dirBytes sums the sizes of the regular files under dir, by base name
// pattern when match is non-empty (filepath.Match syntax).
func dirBytes(dir, match string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		if match != "" {
			if ok, _ := filepath.Match(match, d.Name()); !ok {
				return nil
			}
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// span is one timed interval of the traced run. Times are offsets from the
// recorder's start. Due is set for open-loop requests only.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Due    float64 `json:"due_s,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Status int     `json:"status,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run writes them out once. A
// nil recorder records nothing, which is how the untraced run pays no cost.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) since(t time.Time) float64 { return t.Sub(r.t0).Seconds() }

// add records a finished span and returns its id.
func (r *spanRecorder) add(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// begin opens a span under parent; the returned function closes it and
// returns its id.
func (r *spanRecorder) begin(name string, parent int) (id int, end func() float64) {
	if r == nil {
		start := time.Now()
		return 0, func() float64 { return time.Since(start).Seconds() }
	}
	r.mu.Lock()
	id = len(r.spans) + 1
	start := time.Now()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: r.since(start), End: r.since(start)})
	r.mu.Unlock()
	return id, func() float64 {
		now := time.Now()
		r.mu.Lock()
		r.spans[id-1].End = r.since(now)
		r.mu.Unlock()
		return now.Sub(start).Seconds()
	}
}

// request records one finished HTTP request under its phase span.
func (r *spanRecorder) request(parent int, class string, due, start, end time.Time, status int) {
	if r == nil {
		return
	}
	s := span{Parent: parent, Name: class, Start: r.since(start), End: r.since(end), Status: status}
	if !due.IsZero() {
		s.Due = r.since(due)
	}
	r.add(s)
}

func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime returns each span's duration minus the part of its interval that
// its children cover. Overlapping children are merged, and children reaching
// outside the parent are clipped to it, so self time is never negative and
// concurrent children are not subtracted twice.
func selfTime(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, curStart, curEnd := 0.0, 0.0, 0.0
		open := false
		for _, k := range kids {
			lo, hi := math.Max(k.Start, s.Start), math.Min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curEnd {
				curEnd = math.Max(curEnd, hi)
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			curStart, curEnd, open = lo, hi, true
		}
		if open {
			covered += curEnd - curStart
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writeSpans writes the spans with their self times as one JSON document.
func writeSpans(path string, spans []span) error {
	self := selfTime(spans)
	type row struct {
		span
		Self float64 `json:"self_s"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[s.ID]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// dist collects samples of one quantity; its summaries carry their sample
// count so a percentile is never read without knowing what backs it.
type dist struct {
	mu sync.Mutex
	xs []float64
}

func (d *dist) add(x float64) {
	d.mu.Lock()
	d.xs = append(d.xs, x)
	d.mu.Unlock()
}

// countBelow counts the samples below limit.
func (d *dist) countBelow(limit float64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, x := range d.xs {
		if x < limit {
			n++
		}
	}
	return n
}

// summary is a distribution's nearest-rank quantiles with the sample count.
type summary struct {
	N                  int
	P50, P90, P99, Max float64
	Mean               float64
}

func (d *dist) summary() summary {
	d.mu.Lock()
	xs := append([]float64(nil), d.xs...)
	d.mu.Unlock()
	return summarize(xs)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return summary{P50: nan, P90: nan, P99: nan, Max: nan, Mean: nan}
	}
	sort.Float64s(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return summary{N: len(xs), P50: quantile(xs, 0.5), P90: quantile(xs, 0.9), P99: quantile(xs, 0.99), Max: xs[len(xs)-1], Mean: sum / float64(len(xs))}
}

// quantile is the nearest-rank quantile of sorted xs: the smallest sample
// with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
