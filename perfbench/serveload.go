package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/violation"
)

// readRate is serve-read-mostly's open-loop rate of cheap reads, fixed at
// about half of what the node sustained when the benchmark was written (2
// CPUs: at 1000/s the generator already ran 40 ms late at p99). Full reports
// and the write trickle come on top, on their own schedule.
const readRate = 400

// maxRequestsPerSecond bounds what one closed-loop client can send; the
// schedules are generated this long, and running out marks the run wrong.
const maxRequestsPerSecond = 1000

// readLimitMS is the latency limit of serve-read-mostly's goodput.
const readLimitMS = 2

// Set-ups per run whose median is setup_s: a loaded node takes seconds to
// start, an empty cluster or a CSV load tens of milliseconds, which needs
// more samples for a steady median.
const (
	nodeSetups  = 3
	quickSetups = 7
)

// launch starts one cfdserve child and waits until it is ready; it returns
// the launch-to-ready time in seconds.
func (b *bench) launch(name string, args ...string) (*proc, float64, error) {
	start := time.Now()
	p, err := b.procs.start(b.bin, name, b.work, b.nproc, args...)
	if err != nil {
		return nil, 0, err
	}
	if err := p.waitReady(b.ctx, 150*time.Second); err != nil {
		b.procs.killAndForget(p)
		return nil, 0, err
	}
	return p, time.Since(start).Seconds(), nil
}

// setupRepeated launches a fresh server n times and keeps the last; the
// median launch-to-ready time is setup_s.
func (b *bench) setupRepeated(n int, launch func(i int) (*proc, float64, error)) (*proc, error) {
	endSetup := b.phase("setup", nil, 0)
	defer endSetup()
	var kept *proc
	setup, err := medianOf(n, func(i int) (float64, error) {
		p, t, err := launch(i)
		if err != nil {
			return 0, err
		}
		if i < n-1 {
			b.procs.killAndForget(p)
		} else {
			kept = p
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	b.res.metric("setup_s", setup, "s", n, "setup_s")
	return kept, nil
}

// initialModel is the served CSV with the ids a bulk load assigns: 0..n-1.
func initialModel(in *serveInputs) (*model, []int) {
	m := newModel()
	ids := make([]int, in.rel.Size())
	for i := range ids {
		ids[i] = i
		m.rows[i] = in.rel.Row(i)
	}
	return m, ids
}

// ingestSchedule draws each client's closed-loop requests: a ?since= poll
// one time in twenty, otherwise a batch of 64 mixed ops.
func ingestSchedule(seed int64, clients, perClient, poolN int) [][]reqPlan {
	out := make([][]reqPlan, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		next := c * poolN / clients
		for i := 0; i < perClient; i++ {
			if rng.Intn(20) == 0 {
				out[c] = append(out[c], reqPlan{class: "poll"})
				continue
			}
			out[c] = append(out[c], reqPlan{class: "write", ops: mixedOps(rng, 64, 0.2, 0.2, &next)})
		}
	}
	return out
}

// batchesOf lists the write batches of a schedule.
func batchesOf(reqs []reqPlan, n int) [][]opPlan {
	var out [][]opPlan
	for _, r := range reqs {
		if r.class == "write" && len(out) < n {
			out = append(out, r.ops)
		}
	}
	return out
}

// sendBatch posts ops to /v1/batch and, when acknowledged, records them in
// the model and returns the assigned ids.
func sendBatch(ctx context.Context, c *client, t *tally, class string, due time.Time, ops []violation.Op, m *model) ([]int, int, bool) {
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err) // ops are plain strings and ints
	}
	start := time.Now()
	status, resp, err := c.do(ctx, http.MethodPost, "/v1/batch", body, nil)
	if !t.observe(class, due, start, time.Now(), status, err, http.StatusOK) {
		return nil, len(body), false
	}
	var doc struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(resp, &doc); err != nil {
		t.failed.Add(1)
		return nil, len(body), false
	}
	if err := m.apply(ops, doc.IDs); err != nil {
		t.failed.Add(1)
		return nil, len(body), false
	}
	return doc.IDs, len(body), true
}

// getJSON decodes the 200 answer of a GET into v.
func getJSON(ctx context.Context, c *client, path string, v any) error {
	body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// timedGet sends one GET and records it under class.
func timedGet(ctx context.Context, c *client, t *tally, class string, due time.Time, path string, header map[string]string, want ...int) ([]byte, bool) {
	start := time.Now()
	status, body, err := c.do(ctx, http.MethodGet, path, nil, header)
	return body, t.observe(class, due, start, time.Now(), status, err, want...)
}

func (b *bench) account(t *tally) {
	b.res.Attempted += t.attempted.Load()
	b.res.Failed += t.failed.Load()
	if msg, ok := t.firstErr.Load().(string); ok {
		fmt.Fprintf(os.Stderr, "perfbench: first failed request: %s\n", msg)
	}
}

// latency records a tally class as a named metric, optionally filling slots
// with its median and p99.
func (b *bench) latency(t *tally, class, name string, p50Slot, p90Slot string) summary {
	s := t.dist(class).summary()
	b.res.metric(name+"_p50_ms", s.P50, "ms", s.N, p50Slot)
	b.res.metric(name+"_p90_ms", s.P90, "ms", s.N, p90Slot)
	b.res.metric(name+"_p99_ms", s.P99, "ms", s.N, "")
	return s
}

// checkServed reads the full served state and runs the oracles on it.
func (b *bench) checkServed(c *client, m *model, attrs []string, when string) (*servedState, error) {
	id, end := b.spans.begin("oracle", 0)
	defer end()
	_, endRead := b.spans.begin("oracle.read", id)
	st, err := readState(b.ctx, c)
	endRead()
	if err != nil {
		return nil, err
	}
	_, endCheck := b.spans.begin("oracle.check", id)
	defer endCheck()
	if err := checkState(st, m, attrs, b.nproc); err != nil {
		b.res.wrong("%s: %v", when, err)
	}
	return st, nil
}

// serverExtras derives the /metrics-based layer numbers common to every
// served workload from the diff d over a phase: the server-side mean of each
// route, and the transport share of each client class mapped to a route.
func (b *bench) serverExtras(d promSnapshot, t *tally, classRoute map[string]string) {
	for _, route := range d.labelValues("cfd_http_request_duration_seconds_count", "route") {
		if mean, n := d.histMean("cfd_http_request_duration_seconds", map[string]string{"route": route}); n > 0 {
			b.res.Extra["cfdserve.server_ms."+route] = mean * 1e3
		}
	}
	for class, route := range classRoute {
		server, n := d.histMean("cfd_http_request_duration_seconds", map[string]string{"route": route})
		client := t.dist(class).summary()
		if n > 0 && client.N > 0 {
			b.res.Extra["http.transport_ms."+class] = client.Mean - server*1e3
		}
	}
}

func (b *bench) ratio(name string, num, den float64, why string) {
	if den == 0 || math.IsNaN(num) {
		b.res.Absent[name] = why
		return
	}
	b.res.Extra[name] = num / den
}

func runIngestDurable(b *bench) error {
	b.res.Env["flush"] = "fsync"
	endGen := b.phase("generate", nil, 0)
	in, err := genServe(b.ctx, b.work, b.seed)
	endGen()
	if err != nil {
		return err
	}
	b.res.Env["served_rules"] = strconv.Itoa(in.set.Len())
	sched := ingestSchedule(b.seed, b.nproc, int((warmUp+b.seconds).Seconds())*maxRequestsPerSecond, len(in.pool))
	if err := writeSchedule(filepath.Join(b.work, "schedule.txt"), sched); err != nil {
		return err
	}
	stateOf := func(i int) string { return filepath.Join(b.work, fmt.Sprintf("state-%d", i)) }
	node, err := b.setupRepeated(nodeSetups, func(i int) (*proc, float64, error) {
		return b.launch("node", "-rules", in.rulesPath, "-data", in.csv, "-state", stateOf(i), "-fsync",
			"-support", strconv.Itoa(serveSupport), "-maxlhs", strconv.Itoa(serveMaxLHS))
	})
	if err != nil {
		return err
	}
	for i := 0; i < nodeSetups-1; i++ {
		os.RemoveAll(stateOf(i))
	}
	state := stateOf(nodeSetups - 1)
	m, ids := initialModel(in)
	admin := newClient(node.base())
	defer admin.close()
	var health struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := getJSON(b.ctx, admin, "/v1/health", &health); err != nil {
		return err
	}

	before, err := scrape(b.ctx, admin)
	if err != nil {
		return err
	}
	wb0, wbErr := readProcWriteBytes(node.pid())
	clients := make([]*client, b.nproc)
	for i := range clients {
		clients[i] = newClient(node.base())
		defer clients[i].close()
	}
	owns := split(ids, b.nproc)
	epochs := make([]uint64, b.nproc)
	for i := range epochs {
		epochs[i] = health.Epoch
	}
	next := make([]int, b.nproc)
	ackOps := make([]int64, b.nproc)   // measured, for the throughput
	ackAll := make([]int64, b.nproc)   // warm-up included, like the /metrics diff
	ackBytes := make([]int64, b.nproc) // request bytes, warm-up included
	var polls atomic.Int64
	t := newTally(b.spans)
	endPhase := b.phase("ingest", t, warmUp)
	closedLoop(b.ctx, b.nproc, time.Now().Add(warmUp+b.seconds), func(ctx context.Context, i int) bool {
		if next[i] == len(sched[i]) {
			b.res.wrong("client %d ran out of scheduled requests; raise maxRequestsPerSecond", i)
			return false
		}
		r := sched[i][next[i]]
		next[i]++
		if r.class == "poll" {
			polls.Add(1)
			body, ok := timedGet(ctx, clients[i], t, "poll", time.Time{}, "/v1/violations?since="+strconv.FormatUint(epochs[i], 10), nil, http.StatusOK)
			var doc struct {
				Epoch uint64 `json:"epoch"`
			}
			if ok && json.Unmarshal(body, &doc) == nil {
				epochs[i] = doc.Epoch
			}
			return true
		}
		ops := owns[i].resolve(r.ops, in.pool)
		measured := t.measured(time.Now())
		got, n, ok := sendBatch(ctx, clients[i], t, "write", time.Time{}, ops, m)
		if ok {
			owns[i].acknowledge(got)
			if measured {
				ackOps[i] += int64(len(ops))
			}
			ackAll[i] += int64(len(ops))
			ackBytes[i] += int64(n)
		}
		return true
	})
	elapsed := endPhase() - warmUp.Seconds()
	b.account(t)
	var ops, allOps, userBytes int64
	for i := range ackOps {
		ops += ackOps[i]
		allOps += ackAll[i]
		userBytes += ackBytes[i]
	}
	after, err := scrape(b.ctx, admin)
	if err != nil {
		return err
	}
	wb1, _ := readProcWriteBytes(node.pid())
	mem, err := memOf(node)
	if err != nil {
		return err
	}

	b.latency(t, "write", "write", "main_p50_ms", "")
	poll := t.dist("poll").summary()
	b.res.metric("poll_p50_ms", poll.P50, "ms", poll.N, "")
	b.res.metric("ingest_tuples_per_s", float64(ops)/elapsed, "tuples/s", int(ops), "rate_per_s")
	b.res.metric("rss_bytes_per_tuple", float64(mem.rss)/float64(m.size()), "B/tuple", 1, "")
	b.res.metric("peak_rss_mb", mb(mem.hwm), "MB", 1, "rss_mb")

	// The oracles, then SIGKILL and restart.
	pre, err := b.checkServed(admin, m, in.attrs, "after the timed phase")
	if err != nil {
		return err
	}
	b.res.metric("export_ms", float64(pre.export.Microseconds())/1e3, "ms", len(pre.pages), "heavy_ms")
	admin.close()

	killAt := time.Now()
	b.procs.killAndForget(node)
	killed := filepath.Join(b.work, "killed-state")
	var copyTime time.Duration
	if b.trace {
		// The copy for the persist leg is not part of the restart.
		start := time.Now()
		if err := exec.Command("cp", "-r", state, killed).Run(); err != nil {
			return fmt.Errorf("copying the killed state dir: %w", err)
		}
		copyTime = time.Since(start)
	}
	_, endRestart := b.spans.begin("restart", 0)
	node2, _, err := b.launch("node-restarted", "-state", state, "-fsync",
		"-support", strconv.Itoa(serveSupport), "-maxlhs", strconv.Itoa(serveMaxLHS))
	endRestart()
	if err != nil {
		return err
	}
	restart := time.Since(killAt) - copyTime
	b.res.metric("restart_s", restart.Seconds(), "s", 1, "aux_ms")
	admin2 := newClient(node2.base())
	defer admin2.close()
	post, err := readState(b.ctx, admin2)
	if err != nil {
		return err
	}
	if !bytes.Equal(pre.violations, post.violations) {
		b.res.wrong("GET /v1/violations differs after SIGKILL and restart")
	}
	if len(pre.pages) != len(post.pages) {
		b.res.wrong("tuple export has %d pages before the kill, %d after", len(pre.pages), len(post.pages))
	} else {
		for i := range pre.pages {
			if !bytes.Equal(pre.pages[i], post.pages[i]) {
				b.res.wrong("tuple page %d differs after SIGKILL and restart", i)
				break
			}
		}
	}
	admin2.close()
	b.procs.killAndForget(node2)

	if !b.trace {
		return nil
	}
	d := after.diff(before)
	b.serverExtras(d, t, map[string]string{"write": "/batch", "poll": "/violations"})
	if mean, n := d.histMean("cfd_engine_commit_duration_seconds", map[string]string{"kind": "batch"}); n > 0 {
		b.res.Extra["violation.commit_us"] = mean * 1e6
	}
	if mean, n := d.histMean("cfd_wal_append_duration_seconds", nil); n > 0 {
		b.res.Extra["persist.wal_append_us"] = mean * 1e6
	}
	if fsync, fsyncs := d.histMean("cfd_wal_fsync_duration_seconds", nil); fsyncs > 0 {
		b.res.Extra["persist.fsync_us"] = fsync * 1e6
		b.ratio("persist.fsyncs_per_tuple", fsyncs, float64(allOps), "no acknowledged ops")
	}
	b.res.Extra["persist.compactions"] = d.sum("cfd_store_compactions_total", nil)
	if mean, n := d.histMean("cfd_store_compaction_duration_seconds", nil); n > 0 {
		b.res.Extra["persist.compaction_s"] = mean
	} else {
		b.res.Absent["persist.compaction_s"] = "no compaction ran in the timed phase"
	}
	if wbErr == nil && wb1 > wb0 {
		b.ratio("persist.bytes_per_user_byte", float64(wb1-wb0), float64(userBytes), "no acknowledged ops")
	} else {
		b.res.Absent["persist.bytes_per_user_byte"] = "/proc/<pid>/io reports no storage writes here"
	}
	b.ratio("violation.delta_compacted_ratio", d.sum("cfd_engine_delta_compacted_reads_total", nil), float64(polls.Load()), "no polls sent")
	return b.layerLeg(legInput{csv: in.csv, rel: in.rel, k: serveSupport, maxLHS: serveMaxLHS, remineK: serveSupport,
		served: in.set, pool: in.pool, batches: batchesOf(sched[0], 100), pollGap: 20 * b.nproc, storeDir: killed})
}

// readReq is one request of serve-read-mostly's open loop.
type readReq struct {
	due   time.Duration
	class string
	id    int // tuple id of point reads, cursor of pages
	ops   []opPlan
}

// readSchedule lays out serve-read-mostly's open loop: cheap reads at
// readRate, a full report every half second and a small write batch every
// two thirds of a second.
func readSchedule(seed int64, seconds time.Duration, n int) []readReq {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	var out []readReq
	for i := 0; time.Duration(i)*time.Second/readRate < seconds; i++ {
		r := readReq{due: time.Duration(i) * time.Second / readRate, id: rng.Intn(n)}
		switch x := rng.Float64(); {
		case x < 0.25:
			r.class = "point"
		case x < 0.40:
			r.class = "tuple_violations"
		case x < 0.65:
			r.class = "poll"
		case x < 0.80:
			r.class = "rules_304"
		default:
			r.class = "page"
		}
		out = append(out, r)
	}
	for d := 250 * time.Millisecond; d < seconds; d += 500 * time.Millisecond {
		out = append(out, readReq{due: d, class: "report"})
	}
	next := 0
	for d := 100 * time.Millisecond; d < seconds; d += 2 * time.Second / 3 {
		out = append(out, readReq{due: d, class: "write", ops: mixedOps(rng, 4, 0.5, 0, &next)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

func runReadMostly(b *bench) error {
	endGen := b.phase("generate", nil, 0)
	in, err := genServe(b.ctx, b.work, b.seed)
	endGen()
	if err != nil {
		return err
	}
	b.res.Env["served_rules"] = strconv.Itoa(in.set.Len())
	sched := readSchedule(b.seed, warmUp+b.seconds, in.rel.Size())
	plans := make([]reqPlan, len(sched))
	for i, r := range sched {
		plans[i] = reqPlan{class: fmt.Sprintf("%s@%dus#%d", r.class, r.due.Microseconds(), r.id), ops: r.ops}
	}
	if err := writeSchedule(filepath.Join(b.work, "schedule.txt"), [][]reqPlan{plans}); err != nil {
		return err
	}
	node, err := b.setupRepeated(nodeSetups, func(int) (*proc, float64, error) {
		return b.launch("node", "-rules", in.rulesPath, "-data", in.csv,
			"-support", strconv.Itoa(serveSupport), "-maxlhs", strconv.Itoa(serveMaxLHS))
	})
	if err != nil {
		return err
	}
	m, ids := initialModel(in)
	own := split(ids, 1)[0]
	admin := newClient(node.base())
	defer admin.close()
	var served struct {
		Version string `json:"version"`
	}
	if err := getJSON(b.ctx, admin, "/v1/rules", &served); err != nil {
		return err
	}
	etag := `"` + served.Version + `"`
	var health struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := getJSON(b.ctx, admin, "/v1/health", &health); err != nil {
		return err
	}

	before, err := scrape(b.ctx, admin)
	if err != nil {
		return err
	}
	clients := make([]*client, b.nproc)
	for i := range clients {
		clients[i] = newClient(node.base())
		defer clients[i].close()
	}
	var lastEpoch atomic.Uint64
	lastEpoch.Store(health.Epoch)
	var writeMu sync.Mutex              // one write at a time, so the model applies them in the server's order
	var polls, reportsSent atomic.Int64 // over the whole phase, as the /metrics diff is
	t := newTally(b.spans)
	read := &dist{} // every cheap read together
	endPhase := b.phase("read-open-loop", t, warmUp)
	loopStart := time.Now()
	measureFrom := loopStart.Add(warmUp)
	late := openLoop(b.ctx, b.nproc, loopStart, warmUp, dues(sched), func(ctx context.Context, w, i int, due time.Time) {
		r := sched[i]
		c := clients[w]
		var path string
		var hdr map[string]string
		want := http.StatusOK
		switch r.class {
		case "write":
			writeMu.Lock()
			ops := own.resolve(r.ops, in.pool)
			got, _, ok := sendBatch(ctx, c, t, "write", due, ops, m)
			if ok {
				own.acknowledge(got)
			}
			writeMu.Unlock()
			return
		case "report":
			reportsSent.Add(1)
			path = "/v1/violations"
		case "point":
			path = "/v1/tuples/" + strconv.Itoa(r.id)
		case "tuple_violations":
			path = "/v1/tuples/" + strconv.Itoa(r.id) + "/violations"
		case "poll":
			polls.Add(1)
			path = "/v1/violations?since=" + strconv.FormatUint(lastEpoch.Load(), 10)
		case "rules_304":
			path, hdr, want = "/v1/rules", map[string]string{"If-None-Match": etag}, http.StatusNotModified
		case "page":
			path = "/v1/tuples?limit=100&cursor=" + strconv.Itoa(r.id)
		}
		start := time.Now()
		var status int
		var body []byte
		var err error
		if r.class == "report" {
			// The body is not needed here (the oracles read the report), so
			// it is drained without being kept.
			status, err = c.drain(ctx, path)
		} else {
			status, body, err = c.do(ctx, http.MethodGet, path, nil, hdr)
		}
		end := time.Now()
		if !t.observe(r.class, due, start, end, status, err, want) {
			return
		}
		if r.class == "poll" {
			var doc struct {
				Epoch uint64 `json:"epoch"`
			}
			if json.Unmarshal(body, &doc) == nil {
				for cur := lastEpoch.Load(); doc.Epoch > cur && !lastEpoch.CompareAndSwap(cur, doc.Epoch); cur = lastEpoch.Load() {
				}
			}
		}
		if r.class != "report" && !due.Before(measureFrom) {
			read.add(ms(end.Sub(due)))
		}
	})
	elapsed := endPhase() - warmUp.Seconds()
	after, err := scrape(b.ctx, admin)
	if err != nil {
		return err
	}
	mem, err := memOf(node)
	if err != nil {
		return err
	}
	rs := read.summary()
	b.res.metric("read_p50_ms", rs.P50, "ms", rs.N, "main_p50_ms")
	b.res.metric("read_p99_ms", rs.P99, "ms", rs.N, "")
	b.res.metric("read_p90_ms", rs.P90, "ms", rs.N, "")
	rep := t.dist("report").summary()
	b.res.metric("report_p50_ms", rep.P50, "ms", rep.N, "")
	ls := late.summary()
	b.res.metric("generator_late_p99_ms", ls.P99, "ms", ls.N, "")
	b.res.metric("generator_late_max_ms", ls.Max, "ms", ls.N, "")
	// At a fixed offered rate the completed rate is fixed too; what moves is
	// how many reads meet a latency limit. The limit sits at about twice the
	// median on a 2-CPU machine: a share of the distribution at a fixed
	// latency, where the tail starts, varies far less between runs than the
	// p90 or p99 does, which swing with every stall of a shared machine.
	b.res.metric("reads_within_2ms_per_s", float64(read.countBelow(readLimitMS))/elapsed, "1/s", rs.N, "rate_per_s")
	b.res.metric("rss_bytes_per_tuple", float64(mem.rss)/float64(m.size()), "B/tuple", 1, "")
	b.res.metric("rss_mb", mb(mem.hwm), "MB", 1, "rss_mb")
	for _, class := range []string{"point", "tuple_violations", "poll", "rules_304", "page", "write"} {
		s := t.dist(class).summary()
		b.res.metric(class+"_p50_ms", s.P50, "ms", s.N, "")
	}
	if _, err := b.checkServed(admin, m, in.attrs, "after the open loop"); err != nil {
		return err
	}

	// Phase 2: suspects, a small write before every second one, then remine.
	t2 := newTally(b.spans)
	endSuspects := b.phase("suspects", t2, 0)
	var prev []byte
	rng := rand.New(rand.NewSource(b.seed))
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			ops := own.resolve([]opPlan{{kind: violation.OpUpdate, row: rng.Intn(len(in.pool)), pick: rng.Int()}}, in.pool)
			if got, _, ok := sendBatch(b.ctx, admin, t2, "write", time.Time{}, ops, m); ok {
				own.acknowledge(got)
			}
		}
		body, ok := timedGet(b.ctx, admin, t2, "suspects", time.Time{}, "/v1/suspects", nil, http.StatusOK)
		if ok && i%2 == 1 && !bytes.Equal(body, prev) {
			b.res.wrong("two GET /v1/suspects at one epoch differ")
		}
		prev = body
	}
	endSuspects()
	sus := t2.dist("suspects").summary()
	b.res.metric("suspects_p50_ms", sus.P50, "ms", sus.N, "heavy_ms")
	endRemine := b.phase("remine", t2, 0)
	start := time.Now()
	status, resp, err := admin.do(b.ctx, http.MethodPost, "/v1/rules/remine?wait=1", nil, nil)
	remine := time.Since(start).Seconds()
	endRemine()
	t2.attempted.Add(1)
	var outcome struct {
		Outcome string `json:"outcome"`
		Error   string `json:"error"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(resp, &outcome) != nil || outcome.Outcome == "error" {
		t2.failed.Add(1)
		return fmt.Errorf("remine failed: %d %v %s", status, err, outcome.Error)
	}
	b.res.metric("remine_s", remine, "s", 1, "aux_ms")
	b.account(t)
	b.account(t2)
	if _, err := b.checkServed(admin, m, in.attrs, "after the remine"); err != nil {
		return err
	}
	peak, err := memOf(node)
	if err != nil {
		return err
	}
	b.res.metric("peak_rss_mb", mb(peak.hwm), "MB", 1, "")
	admin.close()
	b.procs.killAndForget(node)

	if !b.trace {
		return nil
	}
	d := after.diff(before)
	b.serverExtras(d, t, map[string]string{"point": "/tuples/{id}", "tuple_violations": "/tuples/{id}/violations",
		"rules_304": "/rules", "page": "/tuples", "write": "/batch"})
	reports := float64(reportsSent.Load())
	rebuilt := d.sum("cfd_engine_snapshots_total", nil)
	b.ratio("violation.snapshot_reuse_ratio", reports-rebuilt, reports, "no full reports sent")
	b.ratio("violation.delta_compacted_ratio", d.sum("cfd_engine_delta_compacted_reads_total", nil), float64(polls.Load()), "no polls sent")
	if mean, n := d.histMean("cfd_engine_commit_duration_seconds", map[string]string{"kind": "batch"}); n > 0 {
		b.res.Extra["violation.commit_us"] = mean * 1e6
	}
	return b.layerLeg(legInput{csv: in.csv, rel: in.rel, k: serveSupport, maxLHS: serveMaxLHS, remineK: serveSupport,
		served: in.set, pool: in.pool, batches: writeBatches(sched), pollGap: 2})
}

func dues(rs []readReq) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.due
	}
	return out
}

func writeBatches(rs []readReq) [][]opPlan {
	var out [][]opPlan
	for _, r := range rs {
		if len(r.ops) > 0 {
			out = append(out, r.ops)
		}
	}
	return out
}
