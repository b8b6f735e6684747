package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/violation"
)

// clusterSchedule draws each client's closed-loop requests: half write
// batches of 16 mixed ops, 35% point reads, 15% full merged reports.
func clusterSchedule(seed int64, clients, perClient, poolN int) [][]reqPlan {
	out := make([][]reqPlan, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*15485863 + int64(c)))
		next := c * poolN / clients
		for i := 0; i < perClient; i++ {
			switch x := rng.Float64(); {
			case x < 0.50:
				out[c] = append(out[c], reqPlan{class: "write", ops: mixedOps(rng, 16, 0.2, 0.2, &next)})
			case x < 0.85:
				out[c] = append(out[c], reqPlan{class: "read", ops: []opPlan{{pick: rng.Int()}}})
			default:
				out[c] = append(out[c], reqPlan{class: "report"})
			}
		}
	}
	return out
}

// mixResult is what one run of the cluster mix measured.
type mixResult struct {
	t       *tally
	elapsed float64
	ackOps  int64
	reports int64 // full reports sent, warm-up included
}

// runMix drives the cluster mix against base for d: writes through
// /v1/batch, point reads checked against the model, full reports.
func (b *bench) runMix(base string, sched [][]reqPlan, owns []*owned, m *model, pool [][]string, d time.Duration, name string) mixResult {
	clients := make([]*client, len(owns))
	for i := range clients {
		clients[i] = newClient(base)
		defer clients[i].close()
	}
	next := make([]int, len(owns))
	acked := make([]int64, len(owns))
	reports := make([]int64, len(owns))
	t := newTally(b.spans)
	end := b.phase(name, t, warmUp)
	closedLoop(b.ctx, len(owns), time.Now().Add(warmUp+d), func(ctx context.Context, i int) bool {
		if next[i] == len(sched[i]) {
			b.res.wrong("client %d ran out of scheduled requests; raise maxRequestsPerSecond", i)
			return false
		}
		r := sched[i][next[i]]
		next[i]++
		switch r.class {
		case "write":
			ops := owns[i].resolve(r.ops, pool)
			measured := t.measured(time.Now())
			if got, _, ok := sendBatch(ctx, clients[i], t, "write", time.Time{}, ops, m); ok {
				owns[i].acknowledge(got)
				if measured {
					acked[i] += int64(len(ops))
				}
			}
		case "read":
			if len(owns[i].ids) == 0 {
				return true
			}
			id := owns[i].ids[r.ops[0].pick%len(owns[i].ids)]
			body, ok := timedGet(ctx, clients[i], t, "read", time.Time{}, "/v1/tuples/"+strconv.Itoa(id), nil, http.StatusOK)
			var doc struct {
				Values []string `json:"values"`
			}
			if ok && (json.Unmarshal(body, &doc) != nil || !slices.Equal(doc.Values, m.get(id))) {
				b.res.wrong("GET /v1/tuples/%d served %q, the model holds %q", id, doc.Values, m.get(id))
			}
		case "report":
			reports[i]++
			start := time.Now()
			status, err := clients[i].drain(ctx, "/v1/violations")
			t.observe("report", time.Time{}, start, time.Now(), status, err, http.StatusOK)
		}
		return true
	})
	res := mixResult{t: t, elapsed: end() - warmUp.Seconds()}
	for i := range acked {
		res.ackOps += acked[i]
		res.reports += reports[i]
	}
	return res
}

func runClusterMixed(b *bench) error {
	endGen := b.phase("generate", nil, 0)
	in, err := genServe(b.ctx, b.work, b.seed)
	endGen()
	if err != nil {
		return err
	}
	b.res.Env["served_rules"] = strconv.Itoa(in.set.Len())
	rulesPath := filepath.Join(b.work, "cluster.rules")
	if err := in.clusterSet.Save(rulesPath); err != nil {
		return err
	}
	b.res.Env["partition_key"] = in.clusterKey
	b.res.Env["cluster_rules"] = strconv.Itoa(in.clusterSet.Len())
	sched := clusterSchedule(b.seed, b.nproc, int((warmUp+b.seconds).Seconds())*maxRequestsPerSecond, len(in.pool))
	if err := writeSchedule(filepath.Join(b.work, "schedule.txt"), sched); err != nil {
		return err
	}
	schema := strings.Join(in.attrs, ",")
	var fleet []*proc
	_, err = b.setupRepeated(quickSetups, func(i int) (*proc, float64, error) {
		start := time.Now()
		var shards []*proc
		var urls []string
		for s := 0; s < 2; s++ {
			p, err := b.procs.start(b.bin, fmt.Sprintf("shard%d", s), b.work, b.nproc, "-rules", rulesPath, "-schema", schema,
				"-support", strconv.Itoa(serveSupport), "-maxlhs", strconv.Itoa(serveMaxLHS))
			if err != nil {
				return nil, 0, err
			}
			shards = append(shards, p)
			urls = append(urls, p.base())
		}
		// Shards first: a coordinator started beside booting shards backs
		// off between contact attempts, which would put its retry interval
		// into set-up time.
		for _, p := range shards {
			if err := p.waitReady(b.ctx, 150*time.Second); err != nil {
				return nil, 0, err
			}
		}
		coord, err := b.procs.start(b.bin, "coordinator", b.work, b.nproc, "-coordinator", "-shards", strings.Join(urls, ","))
		if err != nil {
			return nil, 0, err
		}
		if err := coord.waitReady(b.ctx, 150*time.Second); err != nil {
			return nil, 0, err
		}
		setup := time.Since(start).Seconds()
		if i < quickSetups-1 {
			for _, p := range shards {
				b.procs.killAndForget(p)
			}
		} else {
			fleet = append(shards, coord)
		}
		return coord, setup, nil
	})
	if err != nil {
		return err
	}
	coord := fleet[2]

	// Load the served CSV through the coordinator, chunks dealt to the
	// clients in turn.
	m := newModel()
	loadTally := newTally(b.spans)
	endLoad := b.phase("load", loadTally, 0)
	const chunk = 2000
	var ids []int
	var idsMu sync.Mutex
	loaders := make([]*client, b.nproc)
	for i := range loaders {
		loaders[i] = newClient(coord.base())
		defer loaders[i].close()
	}
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * chunk; lo < in.rel.Size(); lo += b.nproc * chunk {
				ops := make([]violation.Op, 0, chunk)
				for t := lo; t < min(lo+chunk, in.rel.Size()); t++ {
					ops = append(ops, violation.Op{Kind: violation.OpInsert, Values: in.rel.Row(t)})
				}
				got, _, ok := sendBatch(b.ctx, loaders[w], loadTally, "load", time.Time{}, ops, m)
				if !ok {
					return
				}
				idsMu.Lock()
				ids = append(ids, got...)
				idsMu.Unlock()
			}
		}()
	}
	wg.Wait()
	load := endLoad()
	b.account(loadTally)
	if len(ids) != in.rel.Size() {
		return fmt.Errorf("loaded %d of %d tuples through the coordinator", len(ids), in.rel.Size())
	}
	b.res.metric("load_s", load, "s", 1, "")
	owns := split(ids, b.nproc)

	admin := newClient(coord.base())
	defer admin.close()
	before, err := scrapeAll(b.ctx, fleet)
	if err != nil {
		return err
	}
	mix := b.runMix(coord.base(), sched, owns, m, in.pool, b.seconds, "cluster-mix")
	b.account(mix.t)
	after, err := scrapeAll(b.ctx, fleet)
	if err != nil {
		return err
	}
	mem, err := memOf(fleet...)
	if err != nil {
		return err
	}
	b.latency(mix.t, "write", "write", "main_p50_ms", "")
	b.latency(mix.t, "read", "read", "aux_ms", "")
	rep := mix.t.dist("report").summary()
	b.res.metric("report_p50_ms", rep.P50, "ms", rep.N, "heavy_ms")
	b.res.metric("ingest_tuples_per_s", float64(mix.ackOps)/mix.elapsed, "tuples/s", int(mix.ackOps), "rate_per_s")
	b.res.metric("rss_bytes_per_tuple", float64(mem.rss)/float64(m.size()), "B/tuple", 1, "")
	b.res.metric("peak_rss_mb", mb(mem.hwm), "MB", 1, "rss_mb")
	if _, err := b.checkServed(admin, m, in.attrs, "after the cluster mix"); err != nil {
		return err
	}
	admin.close()
	for _, p := range fleet {
		b.procs.killAndForget(p)
	}

	if !b.trace {
		return nil
	}
	dc := after[2].diff(before[2])
	b.serverExtras(dc, mix.t, map[string]string{"write": "/batch", "read": "/tuples/{id}", "report": "/violations"})
	shardMean, shardCalls := dc.histMean("cfd_coord_shard_request_duration_seconds", nil)
	b.ratio("cluster.shard_call_ms", shardMean*1e3, 1, "no shard calls")
	_, coordCalls := dc.histMean("cfd_http_request_duration_seconds", nil)
	b.ratio("cluster.shard_calls_per_request", shardCalls, coordCalls, "no coordinator requests")
	busy := []float64{
		after[0].diff(before[0]).sum("cfd_http_request_duration_seconds_sum", nil),
		after[1].diff(before[1]).sum("cfd_http_request_duration_seconds_sum", nil),
	}
	b.ratio("cluster.shard_skew", math.Max(busy[0], busy[1]), math.Min(busy[0], busy[1]), "a shard served nothing")
	// Every merged report reads each shard's full report once.
	reports := float64(mix.reports)
	rebuilt := (after[0].diff(before[0]).sum("cfd_engine_snapshots_total", nil) + after[1].diff(before[1]).sum("cfd_engine_snapshots_total", nil)) / 2
	b.ratio("violation.snapshot_reuse_ratio", reports-rebuilt, reports, "no full reports sent")
	for _, route := range []string{"/batch", "/tuples/{id}", "/violations"} {
		if mean, n := dc.histMean("cfd_http_request_duration_seconds", map[string]string{"route": route}); n > 0 && shardCalls > 0 {
			b.res.Extra["cluster.coord_self_ms."+route] = (mean - shardMean) * 1e3
		}
	}

	// The scatter price: the same mix against one node holding the same
	// tuples, for half the run.
	node, _, err := b.launch("single-node", "-rules", rulesPath, "-data", in.csv,
		"-support", strconv.Itoa(serveSupport), "-maxlhs", strconv.Itoa(serveMaxLHS))
	if err != nil {
		return err
	}
	m1, ids1 := initialModel(in)
	single := b.runMix(node.base(), sched, split(ids1, b.nproc), m1, in.pool, b.seconds/2, "single-node-mix")
	b.account(single.t)
	b.procs.killAndForget(node)
	for _, class := range []string{"write", "read", "report"} {
		c, s := mix.t.dist(class).summary(), single.t.dist(class).summary()
		b.ratio("cluster.scatter_price."+class, c.P50, s.P50, "no "+class+" requests")
	}
	return b.layerLeg(legInput{csv: in.csv, rel: in.rel, k: serveSupport, maxLHS: serveMaxLHS, remineK: serveSupport,
		served: in.clusterSet, pool: in.pool, batches: batchesOf(sched[0], 100), pollGap: 16})
}

// scrapeAll scrapes every process of the fleet, in fleet order.
func scrapeAll(ctx context.Context, fleet []*proc) ([]promSnapshot, error) {
	out := make([]promSnapshot, len(fleet))
	for i, p := range fleet {
		c := newClient(p.base())
		s, err := scrape(ctx, c)
		c.close()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
