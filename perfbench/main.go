// Command perfbench is the repository's benchmark: one seeded harness for
// the paper's three miners and for the real cfdserve (node, durable store,
// coordinator), with a traced run that attributes the time to layers.
//
// Run it from the repository root (run.sh sets up a build cache inside the
// checkout and runs this package with go run):
//
//	bash perfbench/run.sh --workload serve-read-mostly --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh -compare before.txt after.txt
//
// Every input is generated from --seed before the program under test starts.
// The serving workloads build cmd/cfdserve from the tree and drive real
// processes over loopback, with at most nproc client goroutines holding one
// keep-alive connection each; every child runs with GOMAXPROCS=nproc. Every
// output is checked against an oracle and the run exits non-zero on a wrong
// answer. The last line of standard output is one JSON object: with
// --trace 0 it carries the end-to-end metrics of BENCHMARK.json, with
// --trace 1 its per-layer metrics. The lines before it print every metric by
// its own name, with unit and sample count, and one "RESULT" line holding
// everything the compare mode reads.
//
// # Workloads, and why each is here
//
//   - mine-tax: the paper's experiment, in process. Tax, DBSIZE 40k, arity 9,
//     CF 0.7, k = 0.5% of DBSIZE; CTANE, FastCFD and CFDMiner each run with
//     nproc workers, round after round. All of the miners' work and none of
//     the violation, persist or HTTP work happens here, so a serving change
//     must read as no change on it.
//   - serve-ingest-durable: cfdserve -state -fsync (default -compact-every)
//     on a 100k-tuple Tax CSV (arity 7) and 169 rules mined with FastCFD
//     (k 60, maxLHS 2) on the 2k head of a fixed-seed Tax instance, so every
//     seed serves the same rules. nproc closed-loop clients send
//     POST /v1/batch of 64 ops (about 60% inserts from a second seeded Tax
//     instance, 20% updates, 20% deletes; the relation grows by about 0.4
//     tuples per op) and, one request in twenty, a GET /v1/violations?since=
//     poll; then SIGKILL and restart. Writes dominate: every commit appends
//     and fsyncs the WAL, compaction cycles many times, reads almost never
//     reuse an epoch. It loads RuleIndex and persist and leaves discovery
//     and cleaning idle.
//   - serve-read-mostly: a memory-only cfdserve on the same data and rules.
//     Phase 1 is an open loop of point reads, ?since= polls, 304 rule reads
//     and tuple pages at a fixed 400/s (about half of what the node sustains
//     on 2 CPUs), two full reports a second and a trickle of small batches. Phase 2 is one closed-loop client: GET /v1/suspects,
//     a small write before every second one, then one remine. Many reads per
//     epoch: the epoch snapshot, the delta ring, JSON encoding, cleaning, the
//     relation copy and remine, and no WAL.
//   - cluster-mixed: cfdserve -coordinator over two memory-only shards, loaded
//     with the same 100k tuples through the coordinator. nproc closed-loop
//     clients send 50% batches of 16 ops (updates may move tuples across
//     shards), 35% point reads and 15% full merged reports. Every read sees a
//     new epoch: the counterpart of serve-read-mostly for cache-dependent
//     gains, and the only workload that measures the cluster layer.
//
// # End-to-end metrics
//
// Every run reports one fixed set of metric names, so BENCHMARK.json lists
// slots that every workload fills; each "metric" line of the output names
// the workload's own metric behind a slot:
//
//	slot         mine-tax          serve-ingest-durable  serve-read-mostly      cluster-mixed
//	setup_s      LoadCSVFile (7)   launch→ready (3)      launch→ready (3)       launch→ready, 3 procs (7)
//	main_p50_ms  fastcfd_s         write_p50_ms          read_p50_ms            write_p50_ms
//	aux_ms       cfdminer_s        restart_s             remine_s               read_p50_ms
//	heavy_ms     ctane_s           export_ms             suspects_p50_ms        report_p50_ms
//	rate_per_s   tuples mined/s    ingest_tuples_per_s   reads_within_2ms_per_s ingest_tuples_per_s
//	rss_mb       own VmHWM         node VmHWM            node VmHWM             VmHWM of all 3
//
// setup_s is the median of several set-ups in one run (the count in
// brackets); a slot in ms carries a metric in s times 1000. Timed phases run
// 2 s of warm-up before they count. The other printed metrics — tail
// percentiles, poll_p50_ms, the read-mostly report_p50_ms, round_s, load_s —
// gate nothing: on a shared 2-CPU machine they swung between runs of the same
// code by more than the largest bound the benchmark may set (25%), while the
// metrics above stayed within it. export_ms is the time to page every live
// tuple out through GET /v1/tuples after the timed phase; load_s is loading
// the 100k tuples through the coordinator.
//
// # Per-layer metrics and the end-to-end metric each should move
//
// The traced run (--trace 1) records one span per request under its phase
// span, diffs the /metrics cfdserve exports across the timed phase, and then
// replays the workload's generated inputs against the public functions of
// each module, timing the calls from outside. The in-process leg is the same
// on every workload, so BENCHMARK.json lists those names; the
// /metrics-derived ones exist only where a server runs and are printed as
// "layer+" lines, or as "absent" lines with the reason.
//
//	discovery.{ctane,fastcfd}.first_rule_s  WithProgress, first rule       <alg>_s (mine-tax)
//	discovery.remine_mine_s                 FastCFD Run, remine options    remine_s (serve-read-mostly)
//	pool.{ctane,fastcfd,cfdminer}.speedup   Run at 1 worker ÷ at nproc     <alg>_s (mine-tax)
//	partition.build_s, partition.product_s  FromAttribute/FromItem; pairs  ctane_s
//	itemset.mine_s, cfdminer.derive_s       Mine; MineFromItemsets         cfdminer_s, fastcfd_s
//	diffset.prepare_s                       NewClosed(r).Prepare()         fastcfd_s
//	core.rule_index.{insert,delete}_ns      per (tuple, rule)              ingest_tuples_per_s, write_p50_ms (ingest; not read-mostly)
//	violation.bulk_load_s                   New + BulkLoad                 setup_s (serve-*)
//	violation.heap_bytes_per_tuple          settled HeapAlloc delta        rss_mb (serve-*)
//	violation.apply_batch_us_per_op         ApplyBatch, no WAL             ingest_tuples_per_s (ingest, cluster)
//	violation.report_patch_ms, _cached_us   Report after a batch / again   report_p50_ms (read-mostly)
//	violation.changes_us                    Changes over the poll gap      poll_p50_ms, read_p50_ms
//	violation.row_us, .tuple_violations_us  Row, TupleViolations           read_p50_ms (read-mostly)
//	violation.relation_copy_s, .swap_s      Relation(), SwapRules          suspects_p50_ms, remine_s
//	persist.load_s, persist.snapshot_bytes  OpenStore+Load; snapshot size  restart_s (ingest)
//	cleaning.suspects_s                     Suspects on the copy           suspects_p50_ms
//	cluster.route_ns                        Partitioner.Route per row      ingest_tuples_per_s (cluster)
//	cfdserve.report_encode_ms               report JSON, two-space indent  report_p50_ms
//	dataset.csv_load_s                      LoadCSVFile                    setup_s
//	layer+ cfdserve.server_ms.<route>       route mean from /metrics       that route's latency
//	layer+ http.transport_ms.<class>        client mean − server mean      read_p50_ms
//	layer+ violation.commit_us              batch commit mean              write_p50_ms (ingest)
//	layer+ violation.snapshot_reuse_ratio   reports served from a snapshot report_p50_ms (read-mostly high, cluster low)
//	layer+ violation.delta_compacted_ratio  410s ÷ ?since= polls           poll_p50_ms
//	layer+ persist.{wal_append_us,fsync_us,fsyncs_per_tuple}               write_p50_ms, ingest_tuples_per_s
//	layer+ persist.{compactions,compaction_s,bytes_per_user_byte}          ingest_tuples_per_s
//	layer+ cluster.{shard_call_ms,shard_calls_per_request,shard_skew,coord_self_ms.<route>}  write_p50_ms, report_p50_ms (cluster)
//	layer+ cluster.scatter_price.<class>    cluster p50 ÷ one-node p50     write_p50_ms, report_p50_ms (cluster)
//
// The tracing overhead is the traced runs' end-to-end numbers against the
// untraced ones; the compare mode prints it for a result set holding both.
//
// discovery/monitor and rules are left unmeasured: their per-call cost is
// O(rules) and no workload depends on it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

var workloads = map[string]func(*bench) error{
	"mine-tax":             runMineTax,
	"serve-ingest-durable": runIngestDurable,
	"serve-read-mostly":    runReadMostly,
	"cluster-mixed":        runClusterMixed,
}

// bench is one run of one workload.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	nproc    int
	work     string // scratch directory of this run
	bin      string // the built cfdserve
	procs    procs
	spans    *spanRecorder
	res      *result
}

// result gathers what one run measured and checked.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Env       map[string]string  `json:"env"`
	Named     []named            `json:"named"`
	Gate      map[string]float64 `json:"gate"`
	Layers    map[string]float64 `json:"layers"`
	Extra     map[string]float64 `json:"extra"`
	Absent    map[string]string  `json:"absent"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Wrong     []string           `json:"wrong"`
	mu        sync.Mutex         // guards Wrong, which load clients append to
}

// named is one end-to-end metric under the workload's own name.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Slot  string  `json:"slot,omitempty"`
}

// metric records a workload metric and, when slot is set, fills that
// end-to-end slot with it (seconds converted for a slot in milliseconds).
func (r *result) metric(name string, value float64, unit string, n int, slot string) {
	r.Named = append(r.Named, named{name, value, unit, n, slot})
	if slot != "" {
		if unit == "s" && strings.HasSuffix(slot, "_ms") {
			value *= 1e3
		}
		r.Gate[slot] = value
	}
}

func (r *result) wrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Wrong = append(r.Wrong, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 10, "length of each timed phase, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		root     = flag.String("root", "..", "repository root holding cmd/cfdserve")
		compare  = flag.Bool("compare", false, "compare two result sets (files or directories of captured output) given as arguments")
	)
	flag.Parse()
	if err := os.Chdir(*root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *compare {
		if err := compareMain(flag.Args(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{
		ctx: ctx, workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, nproc: runtime.NumCPU(),
		res: &result{Workload: *workload, Seed: *seed, Trace: *trace == 1,
			Gate: map[string]float64{}, Layers: map[string]float64{}, Extra: map[string]float64{}, Absent: map[string]string{}},
	}
	if b.trace {
		b.spans = newSpanRecorder()
	}
	b.res.Env = map[string]string{
		"nproc": fmt.Sprint(b.nproc), "child_gomaxprocs": fmt.Sprint(b.nproc), "go": runtime.Version(),
		"flush": "none", "seconds": fmt.Sprint(*seconds),
	}
	if err := b.run(fn); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	return b.report(os.Stdout)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (b *bench) run(fn func(*bench) error) error {
	if _, err := os.Stat("cmd/cfdserve"); err != nil {
		return fmt.Errorf("no cmd/cfdserve under the repository root: %w", err)
	}
	base, err := filepath.Abs(filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	if b.work, err = os.MkdirTemp(base, b.workload+"-"); err != nil {
		return err
	}
	defer func() {
		b.procs.stopAll() // before the directory their logs and state live in goes
		os.RemoveAll(b.work)
	}()
	if b.workload != "mine-tax" {
		if b.bin, err = buildServe(b.ctx, filepath.Join(base, "bin")); err != nil {
			return err
		}
	}
	if err := fn(b); err != nil {
		return err
	}
	if b.trace {
		b.noteAbsent()
		path := filepath.Join(base, fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed))
		if err := writeSpans(path, b.spans.snapshot()); err != nil {
			return err
		}
		b.res.Env["spans"] = path
	}
	return nil
}

// report prints every metric by name and the closing JSON line; it returns
// the exit code.
func (b *bench) report(w *os.File) int {
	r := b.res
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%v", r.Workload, r.Seed, r.Trace)
	for _, k := range sortedKeys(r.Env) {
		fmt.Fprintf(w, " %s=%s", k, r.Env[k])
	}
	fmt.Fprintln(w)
	for _, m := range r.Named {
		slot := ""
		if m.Slot != "" {
			slot = "  [" + m.Slot + "]"
		}
		fmt.Fprintf(w, "metric %-28s %14.6g %-9s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, slot)
	}
	for _, k := range sortedKeys(r.Layers) {
		fmt.Fprintf(w, "layer  %-40s %14.6g\n", k, r.Layers[k])
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "layer+ %-40s %14.6g\n", k, r.Extra[k])
	}
	for _, k := range sortedKeys(r.Absent) {
		fmt.Fprintf(w, "absent %s: %s\n", k, r.Absent[k])
	}
	for _, msg := range r.Wrong {
		fmt.Fprintf(w, "WRONG %s\n", msg)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d\n", r.Attempted, r.Failed)

	defs, err := loadDefs("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	list, values := defs.EndToEnd, r.Gate
	if r.Trace {
		list, values = defs.PerLayer, r.Layers
	}
	metrics := map[string]any{}
	for _, d := range list {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.wrong("metric %s was not measured", d.Name)
			continue
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	full, _ := json.Marshal(r)
	fmt.Fprintf(w, "RESULT %s\n", full)
	correct := len(r.Wrong) == 0
	last, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", last)
	if !correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefs(path string) (*benchDefs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDefs
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, errors.New(path + " lists no metrics")
	}
	return &d, nil
}

// timed runs fn under a span and returns its wall time in seconds.
func (b *bench) timed(name string, parent int, fn func() error) (float64, error) {
	_, end := b.spans.begin(name, parent)
	err := fn()
	return end(), err
}

// phase opens a phase span; requests recorded through t nest under it, and
// those sent within warm of its start are not measured.
func (b *bench) phase(name string, t *tally, warm time.Duration) func() float64 {
	id, end := b.spans.begin(name, 0)
	if t != nil {
		t.setPhase(id, warm)
	}
	return end
}

// medianOf runs fn n times and returns the median of what it returned.
func medianOf(n int, fn func(i int) (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		x, err := fn(i)
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
