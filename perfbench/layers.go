package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/cfd"
	"repro/cleaning"
	"repro/cluster"
	"repro/dataset"
	"repro/discovery"
	"repro/internal/cfdminer"
	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/itemset"
	"repro/internal/partition"
	"repro/rules"
	"repro/violation"
)

// legInput is what the in-process leg of the traced run replays: the
// workload's generated relation, its served rules and its batches.
type legInput struct {
	csv       string
	rel       *cfd.Relation
	k, maxLHS int        // the workload's mining options
	remineK   int        // k of the remine step (maxLHS is serveMaxLHS)
	served    *rules.Set // the rules the violation leg serves
	pool      [][]string // insert and update rows
	batches   [][]opPlan // the workload's batches, in schedule order
	pollGap   int        // epochs between two polls of one client
	storeDir  string     // a state dir to time Load on; "" = compact one from the leg's engine
}

// layerLeg times the public functions of every module on the workload's
// inputs and stores the per-layer metrics. Its spans nest: the remine span
// holds the relation copy, the mining and the swap, so self time separates
// them.
func (b *bench) layerLeg(in legInput) error {
	root, endRoot := b.spans.begin("leg", 0)
	defer endRoot()
	L := b.res.Layers
	er := in.rel.Encoded()
	n := in.rel.Size()

	t, err := b.timed("dataset.LoadCSVFile", root, func() error {
		_, err := dataset.LoadCSVFile(in.csv)
		return err
	})
	if err != nil {
		return err
	}
	L["dataset.csv_load_s"] = t

	// Partitions: one per attribute, one per k-frequent item, then the
	// products of every attribute pair (CTANE's level 2).
	parts := make([]*partition.Partition, in.rel.Arity())
	L["partition.build_s"], _ = b.timed("partition.build", root, func() error {
		for a := range parts {
			parts[a] = partition.FromAttribute(er, a)
			counts := map[int32]int{}
			for _, v := range er.Column(a) {
				counts[v]++
			}
			for v, c := range counts {
				if c >= in.k {
					partition.FromItem(er, a, v)
				}
			}
		}
		return nil
	})
	scratch := make([]int32, n)
	L["partition.product_s"], _ = b.timed("partition.product", root, func() error {
		for a := range parts {
			for c := a + 1; c < len(parts); c++ {
				partition.ProductWith(parts[a], parts[c], scratch)
			}
		}
		return nil
	})
	parts = nil

	var mining *itemset.Mining
	L["itemset.mine_s"], _ = b.timed("itemset.Mine", root, func() error {
		mining = itemset.Mine(er, in.k)
		return nil
	})
	L["cfdminer.derive_s"], _ = b.timed("cfdminer.MineFromItemsets", root, func() error {
		cfdminer.MineFromItemsets(mining)
		return nil
	})
	mining = nil
	L["diffset.prepare_s"], _ = b.timed("diffset.Prepare", root, func() error {
		diffset.NewClosed(er).Prepare()
		return nil
	})

	// Each miner at one worker and at nproc; the nproc run also clocks the
	// first streamed rule.
	for _, alg := range []discovery.Algorithm{discovery.AlgCTANE, discovery.AlgFastCFD, discovery.AlgCFDMiner} {
		var first float64
		var start time.Time
		opts := []discovery.Option{discovery.WithSupport(in.k), discovery.WithMaxLHS(in.maxLHS)}
		one, err := b.timed(fmt.Sprintf("discovery.%s.workers=1", alg), root, func() error {
			runtime.GC()
			_, err := discovery.NewEngine(alg, in.rel, append(opts, discovery.WithWorkers(1))...).Run(b.ctx)
			return err
		})
		if err != nil {
			return err
		}
		runtime.GC()
		many, err := b.timed(fmt.Sprintf("discovery.%s.workers=%d", alg, b.nproc), root, func() error {
			start = time.Now()
			progress := discovery.WithProgress(func(found int) {
				if found == 1 {
					first = time.Since(start).Seconds()
				}
			})
			_, err := discovery.NewEngine(alg, in.rel, append(opts, discovery.WithWorkers(b.nproc), progress)...).Run(b.ctx)
			return err
		})
		if err != nil {
			return err
		}
		L[fmt.Sprintf("pool.%s.speedup", alg)] = one / many
		if alg != discovery.AlgCFDMiner {
			L[fmt.Sprintf("discovery.%s.first_rule_s", alg)] = first
		}
	}

	if err := b.ruleIndexLeg(root, in, er); err != nil {
		return err
	}
	return b.engineLeg(root, in)
}

// ruleIndexLeg times RuleIndex.Insert and Delete per (tuple, rule) on the
// served rules, one index at a time so only one is ever resident.
func (b *bench) ruleIndexLeg(root int, in legInput, er *core.Relation) error {
	n := in.rel.Size()
	rows := make([][]int32, n)
	for t := range rows {
		rows[t] = er.CodedRow(t)
	}
	var ins, del time.Duration
	pairs := 0
	_, end := b.spans.begin("core.RuleIndex", root)
	for _, c := range in.served.CFDs() {
		enc, err := cfd.Encode(in.rel, c)
		if err != nil {
			continue // a constant outside the relation's domain matches nothing
		}
		ix := core.NewRuleIndex(enc)
		start := time.Now()
		for t, row := range rows {
			ix.Insert(t, row)
		}
		ins += time.Since(start)
		start = time.Now()
		for t, row := range rows {
			ix.Delete(t, row)
		}
		del += time.Since(start)
		pairs += n
	}
	end()
	if pairs == 0 {
		return fmt.Errorf("no served rule encodes against the relation")
	}
	b.res.Layers["core.rule_index.insert_ns"] = float64(ins.Nanoseconds()) / float64(pairs)
	b.res.Layers["core.rule_index.delete_ns"] = float64(del.Nanoseconds()) / float64(pairs)
	return nil
}

// engineLeg times the violation engine, persist, cleaning, cluster routing
// and the report encoding on one bulk-loaded engine.
func (b *bench) engineLeg(root int, in legInput) error {
	L := b.res.Layers
	attrs := in.rel.Attributes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var e *violation.Engine
	t, err := b.timed("violation.New+BulkLoad", root, func() error {
		var err error
		if e, err = violation.New(attrs, in.served, violation.Options{Workers: b.nproc}); err != nil {
			return err
		}
		return e.BulkLoad(in.rel)
	})
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	L["violation.bulk_load_s"] = t
	L["violation.heap_bytes_per_tuple"] = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(in.rel.Size())

	ids := make([]int, in.rel.Size())
	for i := range ids {
		ids[i] = i
	}
	own := split(ids, 1)[0]
	var applied time.Duration
	ops := 0
	_, endApply := b.spans.begin("violation.ApplyBatch", root)
	for _, plan := range in.batches {
		batch := own.resolve(plan, in.pool)
		start := time.Now()
		got, err := e.ApplyBatch(batch)
		applied += time.Since(start)
		if err != nil {
			return fmt.Errorf("ApplyBatch: %w", err)
		}
		own.acknowledge(got)
		ops += len(batch)
	}
	endApply()
	L["violation.apply_batch_us_per_op"] = float64(applied.Microseconds()) / float64(max(ops, 1))

	// Report after one small batch (patched from the previous snapshot) and
	// again at the same epoch (served from it).
	e.Report()
	rng := rand.New(rand.NewSource(b.seed))
	var patch, cached []float64
	for i := 0; i < 15; i++ {
		small := own.resolve([]opPlan{{kind: violation.OpUpdate, row: rng.Intn(len(in.pool)), pick: rng.Int()}}, in.pool)
		if _, err := e.ApplyBatch(small); err != nil {
			return err
		}
		start := time.Now()
		e.Report()
		patch = append(patch, ms(time.Since(start)))
		start = time.Now()
		e.Report()
		cached = append(cached, float64(time.Since(start).Nanoseconds())/1e3)
	}
	L["violation.report_patch_ms"] = median(patch)
	L["violation.report_cached_us"] = median(cached)

	epoch := e.Epoch()
	var changes []float64
	for i := 0; i < 20; i++ {
		since := epoch - uint64(min(in.pollGap, int(epoch)))
		start := time.Now()
		if _, err := e.Changes(since); err != nil {
			return fmt.Errorf("Changes(%d): %w", since, err)
		}
		changes = append(changes, float64(time.Since(start).Nanoseconds())/1e3)
	}
	L["violation.changes_us"] = median(changes)

	var rowT, tvT time.Duration
	const reads = 2000
	for i := 0; i < reads; i++ {
		id := own.ids[rng.Intn(len(own.ids))]
		start := time.Now()
		if _, err := e.Row(id); err != nil {
			return err
		}
		rowT += time.Since(start)
		start = time.Now()
		if _, err := e.TupleViolations(id); err != nil {
			return err
		}
		tvT += time.Since(start)
	}
	L["violation.row_us"] = float64(rowT.Nanoseconds()) / 1e3 / reads
	L["violation.tuple_violations_us"] = float64(tvT.Nanoseconds()) / 1e3 / reads

	rep := e.Report()
	doc := cluster.ViolationsDoc{Epoch: rep.Epoch, Dirty: rep.DirtyTuples, RulesChecked: rep.RulesChecked}
	for _, v := range rep.Violations {
		doc.Violations = append(doc.Violations, cluster.RuleTuples{Rule: v.Rule.String(), Tuples: v.Tuples})
	}
	enc, err := medianOf(3, func(int) (float64, error) {
		return b.timed("cfdserve.report_encode", root, func() error {
			w := json.NewEncoder(io.Discard)
			w.SetIndent("", "  ")
			return w.Encode(doc)
		})
	})
	if err != nil {
		return err
	}
	L["cfdserve.report_encode_ms"] = enc * 1e3

	if err := b.persistLeg(root, in, e); err != nil {
		return err
	}

	// The remine chain as the server runs it: copy the relation, mine it,
	// swap the result in. Suspects run on the same copy.
	remine, endRemine := b.spans.begin("remine", root)
	var copyRel *cfd.Relation
	L["violation.relation_copy_s"], err = b.timed("violation.Relation", remine, func() error {
		var err error
		copyRel, _, err = e.Relation()
		return err
	})
	if err != nil {
		return err
	}
	var mined *rules.Set
	L["discovery.remine_mine_s"], err = b.timed("discovery.fastcfd.Run", remine, func() error {
		var err error
		mined, err = discovery.NewEngine(discovery.AlgFastCFD, copyRel, discovery.WithSupport(in.remineK),
			discovery.WithMaxLHS(serveMaxLHS), discovery.WithWorkers(b.nproc)).Run(b.ctx)
		return err
	})
	if err != nil {
		return err
	}
	L["violation.swap_s"], err = b.timed("violation.SwapRules", remine, func() error {
		_, err := e.SwapRules(b.ctx, mined)
		return err
	})
	endRemine()
	if err != nil {
		return err
	}
	e = nil
	runtime.GC()
	L["cleaning.suspects_s"], err = b.timed("cleaning.Suspects", root, func() error {
		_, err := cleaning.Suspects(copyRel, in.served)
		return err
	})
	if err != nil {
		return err
	}

	_, clusterSet := partitionable(in.served)
	p, err := cluster.NewPartitioner(attrs, cluster.DeriveKey(attrs, clusterSet))
	if err != nil {
		return err
	}
	rows := make([][]string, copyRel.Size())
	for i := range rows {
		rows[i] = copyRel.Row(i)
	}
	route, _ := b.timed("cluster.Route", root, func() error {
		for _, r := range rows {
			p.Route(r, 2)
		}
		return nil
	})
	L["cluster.route_ns"] = route * 1e9 / float64(len(rows))
	return nil
}

// persistLeg times Store.Load (OpenStore decodes the snapshot, Load replays
// the WAL) on the given state dir, or on one compacted from e.
func (b *bench) persistLeg(root int, in legInput, e *violation.Engine) error {
	dir := in.storeDir
	if dir == "" {
		dir = filepath.Join(b.work, "leg-state")
		st, err := violation.OpenStore(dir, violation.StoreOptions{})
		if err != nil {
			return err
		}
		if err := st.Compact(e); err != nil {
			st.Close()
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	runtime.GC()
	t, err := b.timed("persist.Load", root, func() error {
		st, err := violation.OpenStore(dir, violation.StoreOptions{})
		if err != nil {
			return err
		}
		defer st.Close()
		_, ok, err := st.Load(violation.Options{Workers: b.nproc})
		if err == nil && !ok {
			err = fmt.Errorf("state dir %s holds no snapshot", dir)
		}
		return err
	})
	if err != nil {
		return err
	}
	b.res.Layers["persist.load_s"] = t
	size, err := dirBytes(dir, "snapshot*")
	if err != nil {
		return err
	}
	b.res.Layers["persist.snapshot_bytes"] = float64(size)
	return nil
}

// serverLayers are the per-layer metrics read from the servers' /metrics, each
// with why a workload that does not produce it cannot. Names ending in "."
// stand for one metric per route or request class.
var serverLayers = []struct{ name, why string }{
	{"cfdserve.server_ms.", "no server runs in this workload"},
	{"http.transport_ms.", "no server runs in this workload"},
	{"violation.commit_us", "no node of this workload commits directly: the shards commit behind the coordinator (see cluster.shard_call_ms)"},
	{"violation.snapshot_reuse_ratio", "no full report is read in this workload's timed phase"},
	{"violation.delta_compacted_ratio", "no ?since= poll is sent in this workload"},
	{"persist.wal_append_us", "memory-only: no write-ahead log"},
	{"persist.fsync_us", "memory-only: no write-ahead log"},
	{"persist.fsyncs_per_tuple", "memory-only: no write-ahead log"},
	{"persist.compactions", "memory-only: no snapshots"},
	{"persist.compaction_s", "memory-only: no snapshots"},
	{"persist.bytes_per_user_byte", "memory-only: nothing is written to storage"},
	{"cluster.shard_call_ms", "one node: no coordinator"},
	{"cluster.shard_calls_per_request", "one node: no coordinator"},
	{"cluster.shard_skew", "one node: no coordinator"},
	{"cluster.coord_self_ms.", "one node: no coordinator"},
	{"cluster.scatter_price.", "one node: no coordinator"},
}

// noteAbsent records why each server-side layer metric this workload did
// not produce is absent.
func (b *bench) noteAbsent() {
	for _, l := range serverLayers {
		found := false
		for k := range b.res.Extra {
			if k == l.name || (strings.HasSuffix(l.name, ".") && strings.HasPrefix(k, l.name)) {
				found = true
				break
			}
		}
		name := l.name
		if strings.HasSuffix(name, ".") {
			name += "*"
		}
		if _, noted := b.res.Absent[name]; !found && !noted {
			why := l.why
			if b.workload == "mine-tax" {
				why = "in-process workload: no server runs"
			}
			b.res.Absent[name] = why
		}
	}
}
