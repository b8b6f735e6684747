package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
	"repro/rules"
)

// runMineTax is the paper's experiment: CTANE, FastCFD and CFDMiner on one
// Tax relation, round after round for the run's length.
func runMineTax(b *bench) error {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: mineSize, Arity: mineArity, CF: taxCF, Seed: b.seed})
	if err != nil {
		return err
	}
	csv := filepath.Join(b.work, "mine.csv")
	if err := dataset.SaveCSVFile(csv, rel); err != nil {
		return err
	}
	k := mineSize / 200 // 0.5% of DBSIZE

	endSetup := b.phase("setup", nil, 0)
	setup, err := medianOf(quickSetups, func(int) (float64, error) {
		runtime.GC()
		return b.timed("dataset.LoadCSVFile", 0, func() error {
			rel, err = dataset.LoadCSVFile(csv)
			return err
		})
	})
	endSetup()
	if err != nil {
		return err
	}
	b.res.metric("setup_s", setup, "s", quickSetups, "setup_s")

	// CFDMiner takes a tenth of the others' time; three runs a round give
	// its median as many samples as the others' rounds give theirs time.
	algs := []discovery.Algorithm{discovery.AlgCTANE, discovery.AlgFastCFD, discovery.AlgCFDMiner, discovery.AlgCFDMiner, discovery.AlgCFDMiner}
	times := map[discovery.Algorithm][]float64{}
	var roundTimes []float64
	var ruleCount int
	endMine := b.phase("mine", nil, 0)
	start := time.Now()
	for round, rounds := 0, 1; round < rounds; round++ {
		sets := map[discovery.Algorithm]*rules.Set{}
		roundStart := time.Now()
		for _, alg := range algs {
			runtime.GC()
			b.res.Attempted++
			var set *rules.Set
			t, err := b.timed(string(alg), 0, func() error {
				var err error
				set, err = discovery.NewEngine(alg, rel, discovery.WithSupport(k), discovery.WithWorkers(b.nproc)).Run(b.ctx)
				return err
			})
			if err != nil {
				b.res.Failed++
				return fmt.Errorf("%s: %w", alg, err)
			}
			times[alg] = append(times[alg], t)
			sets[alg] = set
		}
		roundTimes = append(roundTimes, time.Since(roundStart).Seconds())
		checkMined(b.res, sets)
		ruleCount = sets[discovery.AlgFastCFD].Len()
		if round == 0 {
			// As many rounds as fill the run's length, at least one.
			rounds = max(1, int(math.Round(b.seconds.Seconds()/roundTimes[0])))
		}
	}
	elapsed := time.Since(start).Seconds()
	endMine()

	ctane, fast, miner := summarize(times[discovery.AlgCTANE]), summarize(times[discovery.AlgFastCFD]), summarize(times[discovery.AlgCFDMiner])
	b.res.metric("fastcfd_s", fast.P50, "s", fast.N, "main_p50_ms")
	b.res.metric("cfdminer_s", miner.P50, "s", miner.N, "aux_ms")
	b.res.metric("ctane_s", ctane.P50, "s", ctane.N, "heavy_ms")
	round := median(roundTimes)
	b.res.metric("round_s", round, "s", len(roundTimes), "")
	runs := ctane.N + fast.N + miner.N
	b.res.metric("tuples_mined_per_s", float64(mineSize*runs)/elapsed, "tuples/s", runs, "rate_per_s")
	b.res.metric("rules", float64(ruleCount), "count", 1, "")
	mem, err := readProcMem(os.Getpid())
	if err != nil {
		return err
	}
	b.res.metric("peak_rss_mb", mb(mem.hwm), "MB", 1, "rss_mb")

	if !b.trace {
		return nil
	}
	in := legInput{csv: csv, rel: rel, k: k, remineK: k, pollGap: 1}
	if in.served, err = headRules(b.ctx, rel); err != nil {
		return err
	}
	pool, err := dataset.Tax(dataset.TaxConfig{Size: 10_000, Arity: mineArity, CF: taxCF, Seed: b.seed + 1_000_003})
	if err != nil {
		return err
	}
	for i := 0; i < pool.Size(); i++ {
		in.pool = append(in.pool, pool.Row(i))
	}
	in.batches = batchesOf(ingestSchedule(b.seed, 1, 110, pool.Size())[0], 100)
	return b.layerLeg(in)
}

// headRules mines the rules a server would be given for rel: FastCFD on its
// head, k 60, LHS at most 2.
func headRules(ctx context.Context, rel *cfd.Relation) (*rules.Set, error) {
	return discovery.NewEngine(discovery.AlgFastCFD, rel.Head(serveHead),
		discovery.WithSupport(serveSupport), discovery.WithMaxLHS(serveMaxLHS)).Run(ctx)
}

// checkMined is the mine-tax oracle: CTANE and FastCFD find the same cover,
// and CFDMiner finds exactly FastCFD's constant rules.
func checkMined(r *result, sets map[discovery.Algorithm]*rules.Set) {
	ctane, fast, miner := sets[discovery.AlgCTANE], sets[discovery.AlgFastCFD], sets[discovery.AlgCFDMiner]
	if ctane.Fingerprint() != fast.Fingerprint() {
		r.wrong("CTANE found %d rules (%s), FastCFD %d (%s)", ctane.Len(), ctane.Fingerprint(), fast.Len(), fast.Fingerprint())
	}
	var constant []cfd.CFD
	for _, c := range fast.CFDs() {
		if c.IsConstant() {
			constant = append(constant, c)
		}
	}
	if want := rules.New(constant, rules.Provenance{}); want.Fingerprint() != miner.Fingerprint() {
		r.wrong("CFDMiner found %d rules, FastCFD %d constant ones", miner.Len(), want.Len())
	}
}
