package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestParsePromLabelsEscapesAndHistograms(t *testing.T) {
	text := `# HELP cfd_http_request_duration_seconds HTTP request duration.
# TYPE cfd_http_request_duration_seconds histogram
cfd_http_request_duration_seconds_bucket{route="/batch",method="POST",le="0.005"} 3
cfd_http_request_duration_seconds_bucket{route="/batch",method="POST",le="+Inf"} 4
cfd_http_request_duration_seconds_sum{route="/batch",method="POST"} 0.5
cfd_http_request_duration_seconds_count{route="/batch",method="POST"} 4
cfd_http_request_duration_seconds_sum{method="GET",route="/tuples/{id}"} 0.25
cfd_http_request_duration_seconds_count{method="GET",route="/tuples/{id}"} 1
cfd_odd{msg="a \"quoted\" back\\slash\nnew, {braces}"} 7 1700000000000
cfd_plain 2.5e+03
`
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if mean, n := p.histMean("cfd_http_request_duration_seconds", map[string]string{"route": "/batch"}); n != 4 || mean != 0.125 {
		t.Fatalf("batch mean %v over %v, want 0.125 over 4", mean, n)
	}
	if mean, n := p.histMean("cfd_http_request_duration_seconds", nil); n != 5 || mean != 0.15 {
		t.Fatalf("overall mean %v over %v, want 0.15 over 5", mean, n)
	}
	if got := p.sum("cfd_odd", map[string]string{"msg": "a \"quoted\" back\\slash\nnew, {braces}"}); got != 7 {
		t.Fatalf("escaped label lookup = %v, want 7", got)
	}
	if got := p.sum("cfd_plain", nil); got != 2500 {
		t.Fatalf("unlabelled series = %v, want 2500", got)
	}
	if got := p.labelValues("cfd_http_request_duration_seconds_count", "route"); len(got) != 2 || got[0] != "/batch" || got[1] != "/tuples/{id}" {
		t.Fatalf("route labels = %q", got)
	}
	// Label order does not split a series.
	if len(p) != 8 {
		t.Fatalf("parsed %d series, want 8", len(p))
	}
}

func TestPromDiff(t *testing.T) {
	before, err := parseProm("c_total{k=\"a\"} 3\nh_sum 1\nh_count 2\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm("c_total{k=\"a\"} 10\nc_total{k=\"b\"} 4\nh_sum 4\nh_count 5\n")
	if err != nil {
		t.Fatal(err)
	}
	d := after.diff(before)
	if got := d.sum("c_total", map[string]string{"k": "a"}); got != 7 {
		t.Fatalf("diff of a = %v, want 7", got)
	}
	if got := d.sum("c_total", map[string]string{"k": "b"}); got != 4 {
		t.Fatalf("a series new in after counts from zero: got %v, want 4", got)
	}
	if mean, n := d.histMean("h", nil); n != 3 || mean != 1 {
		t.Fatalf("histogram diff mean %v over %v, want 1 over 3", mean, n)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"novalue\n", "x{k=\"v} 1\n", "x{k=v} 1\n", "x 1 2 3\n", "x abc\n"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	m, err := parseProcStatus("Name:\tcfdserve\nVmHWM:\t 1313976 kB\nVmRSS:\t  398784 kB\nThreads:\t9\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.rss != 398784<<10 || m.hwm != 1313976<<10 {
		t.Fatalf("got %+v", m)
	}
	if _, err := parseProcStatus("Name:\tx\n"); err == nil {
		t.Fatal("status without memory lines accepted")
	}
	self, err := readProcMem(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if self.rss <= 0 || self.hwm < self.rss {
		t.Fatalf("own memory %+v", self)
	}
}

func TestDirBytes(t *testing.T) {
	dir := t.TempDir()
	for name, size := range map[string]int{"snapshot.json": 100, "wal.jsonl": 30, "sub/snapshot.json": 7} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := dirBytes(dir, ""); err != nil || got != 137 {
		t.Fatalf("dirBytes = %d, %v; want 137", got, err)
	}
	if got, err := dirBytes(dir, "snapshot*"); err != nil || got != 107 {
		t.Fatalf("dirBytes(snapshot*) = %d, %v; want 107", got, err)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "remine", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "copy", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "mine", Start: 3, End: 6},  // overlaps copy
		{ID: 4, Parent: 1, Name: "swap", Start: 8, End: 12}, // reaches past the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 4, End: 5},
	}
	self := selfTime(spans)
	want := map[int]float64{1: 10 - 5 - 2, 2: 3, 3: 2, 4: 4, 5: 1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestSpanRecorderNilIsNoOp(t *testing.T) {
	var r *spanRecorder
	id, end := r.begin("x", 0)
	if id != 0 || end() < 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded")
	}
	rec := newSpanRecorder()
	parent, endParent := rec.begin("phase", 0)
	child, endChild := rec.begin("call", parent)
	endChild()
	endParent()
	got := rec.snapshot()
	if len(got) != 2 || got[1].ID != child || got[1].Parent != parent || got[0].End < got[1].End {
		t.Fatalf("spans %+v", got)
	}
}

func TestSummaryReportsCount(t *testing.T) {
	var d dist
	for i := 1; i <= 200; i++ {
		d.add(float64(i))
	}
	s := d.summary()
	if s.N != 200 || s.P50 != 100 || s.P90 != 180 || s.P99 != 198 || s.Max != 200 || s.Mean != 100.5 {
		t.Fatalf("summary %+v", s)
	}
	if d.countBelow(10.5) != 10 {
		t.Fatalf("countBelow(10.5) = %d", d.countBelow(10.5))
	}
	if e := summarize(nil); e.N != 0 || !math.IsNaN(e.P50) {
		t.Fatalf("empty summary %+v", e)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "x", Better: "lower", Bound: 0.1}
	before := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	noisy := []float64{60, 140, 90, 150, 70, 100, 130, 80, 120, 110}
	if v := verdict(d, before, faster); v != "improved" {
		t.Errorf("faster: %s", v)
	}
	if v := verdict(d, before, before); v != "no worse" {
		t.Errorf("same: %s", v)
	}
	if v := verdict(d, before, slower); v[:9] != "regressed" {
		t.Errorf("slower: %s", v)
	}
	if v := verdict(d, before, noisy); v[:10] != "unresolved" {
		t.Errorf("noisy: %s", v)
	}
}
