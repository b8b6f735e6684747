package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/cfd"
	"repro/dataset"
	"repro/rules"
	"repro/violation"
)

// Every input is generated from the seed and written to the work directory
// before any program under test starts: the CSVs, the rule files and the op
// schedules. The program receives only those files and the requests.

const (
	serveSize    = 100_000 // tuples served by the serve-* and cluster-mixed workloads
	serveArity   = 7
	serveHead    = 2_000 // the served rules are mined on a head this long
	serveSupport = 60    // k of that mining and of every remine
	serveMaxLHS  = 2
	poolSize     = 50_000 // rows of the second Tax instance that inserts and updates draw from
	mineSize     = 40_000 // DBSIZE of mine-tax
	mineArity    = 9
	taxCF        = 0.7
	rulesSeed    = 1 // seed of the Tax instance whose head the served rules are mined on
)

// serveInputs are the files and relations shared by the serving workloads.
type serveInputs struct {
	csv        string
	rulesPath  string
	rel        *cfd.Relation
	attrs      []string
	set        *rules.Set
	pool       [][]string // insert/update rows
	clusterSet *rules.Set // the rules whose LHS all hold the partition attribute
	clusterKey string
}

func genServe(ctx context.Context, dir string, seed int64) (*serveInputs, error) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: serveSize, Arity: serveArity, CF: taxCF, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &serveInputs{csv: filepath.Join(dir, "serve.csv"), rulesPath: filepath.Join(dir, "serve.rules"), rel: rel, attrs: rel.Attributes()}
	if err := dataset.SaveCSVFile(in.csv, rel); err != nil {
		return nil, err
	}
	// The rules come from the head of a fixed-seed instance: Tax embeds the
	// same dependencies under every seed, so these rules mean the same on
	// every seed's data, while a head of each seed's own data would draw a
	// different rule set each time — and with it a different violation
	// volume, which would swamp the run-to-run spread the benchmark reports.
	ruleRel := rel
	if seed != rulesSeed {
		if ruleRel, err = dataset.Tax(dataset.TaxConfig{Size: serveSize, Arity: serveArity, CF: taxCF, Seed: rulesSeed}); err != nil {
			return nil, err
		}
	}
	in.set, err = headRules(ctx, ruleRel)
	if err != nil {
		return nil, err
	}
	if in.set.Len() == 0 {
		return nil, fmt.Errorf("no rules mined on the %d-tuple head", serveHead)
	}
	if err := in.set.Save(in.rulesPath); err != nil {
		return nil, err
	}
	poolRel, err := dataset.Tax(dataset.TaxConfig{Size: poolSize, Arity: serveArity, CF: taxCF, Seed: seed + 1_000_003})
	if err != nil {
		return nil, err
	}
	in.pool = make([][]string, poolRel.Size())
	for i := range in.pool {
		in.pool[i] = poolRel.Row(i)
	}
	if err := dataset.SaveCSVFile(filepath.Join(dir, "pool.csv"), poolRel); err != nil {
		return nil, err
	}
	in.clusterKey, in.clusterSet = partitionable(in.set)
	return in, nil
}

// partitionable keeps the rules whose LHS holds the attribute most rules
// share (ties to the first in rule order), so the coordinator derives a
// non-empty partition key and every tuple write really scatters across
// shards; with the full set the key would be empty and every tuple would
// land on shard 0.
func partitionable(set *rules.Set) (string, *rules.Set) {
	count := map[string]int{}
	var order []string
	for _, r := range set.CFDs() {
		for _, a := range r.LHS {
			if count[a] == 0 {
				order = append(order, a)
			}
			count[a]++
		}
	}
	best := order[0]
	for _, a := range order {
		if count[a] > count[best] {
			best = a
		}
	}
	var keep []cfd.CFD
	for _, r := range set.CFDs() {
		for _, a := range r.LHS {
			if a == best {
				keep = append(keep, r)
				break
			}
		}
	}
	return best, rules.New(keep, set.Provenance())
}

// opPlan is one scheduled op. The tuple an update or delete targets is chosen
// when the op is sent, as the pick-th (mod size) of the ids the sending
// client owns, because ids are assigned by the server.
type opPlan struct {
	kind violation.OpKind
	row  int // index into the insert/update row pool
	pick int
}

// reqPlan is one scheduled request: a poll or read when ops is empty.
type reqPlan struct {
	class string
	ops   []opPlan
}

// mixedOps draws n ops, about 60% inserts and 20% each updates and deletes
// (updateShare and deleteShare set the last two).
func mixedOps(rng *rand.Rand, n int, updateShare, deleteShare float64, nextRow *int) []opPlan {
	ops := make([]opPlan, n)
	for i := range ops {
		x := rng.Float64()
		kind := violation.OpInsert
		switch {
		case x < deleteShare:
			kind = violation.OpDelete
		case x < deleteShare+updateShare:
			kind = violation.OpUpdate
		}
		ops[i] = opPlan{kind: kind, row: *nextRow % poolSize, pick: rng.Int()}
		*nextRow++
	}
	return ops
}

// writeSchedule records the schedules in the work directory, one request
// per line.
func writeSchedule(path string, clients [][]reqPlan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for c, reqs := range clients {
		for _, r := range reqs {
			fmt.Fprintf(w, "%d %s", c, r.class)
			for _, op := range r.ops {
				kind := "read"
				if op.kind != "" {
					kind = string(op.kind)
				}
				fmt.Fprintf(w, " %c:%d:%d", kind[0], op.row, op.pick)
			}
			w.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// owned is the set of live tuple ids one client may update or delete.
type owned struct {
	ids []int
	at  map[int]int
}

func newOwned() *owned { return &owned{at: map[int]int{}} }

func (o *owned) add(id int) {
	o.at[id] = len(o.ids)
	o.ids = append(o.ids, id)
}

func (o *owned) remove(id int) {
	i := o.at[id]
	last := o.ids[len(o.ids)-1]
	o.ids[i] = last
	o.at[last] = i
	o.ids = o.ids[:len(o.ids)-1]
	delete(o.at, id)
}

// split deals ids round-robin to n clients.
func split(ids []int, n int) []*owned {
	sort.Ints(ids)
	out := make([]*owned, n)
	for i := range out {
		out[i] = newOwned()
	}
	for i, id := range ids {
		out[i%n].add(id)
	}
	return out
}

// resolve turns a planned batch into engine ops against the client's owned
// ids. Deleted ids leave the set at once, so no later op of the batch picks
// them; an op with nothing to pick from becomes an insert.
func (o *owned) resolve(plan []opPlan, pool [][]string) []violation.Op {
	ops := make([]violation.Op, len(plan))
	for i, p := range plan {
		kind := p.kind
		if kind != violation.OpInsert && len(o.ids) == 0 {
			kind = violation.OpInsert
		}
		switch kind {
		case violation.OpInsert:
			ops[i] = violation.Op{Kind: kind, Values: pool[p.row]}
		case violation.OpUpdate:
			ops[i] = violation.Op{Kind: kind, ID: o.ids[p.pick%len(o.ids)], Values: pool[p.row]}
		case violation.OpDelete:
			id := o.ids[p.pick%len(o.ids)]
			o.remove(id)
			ops[i] = violation.Op{Kind: kind, ID: id}
		}
	}
	return ops
}

// acknowledge adds the ids the server assigned to the batch's inserts.
func (o *owned) acknowledge(ids []int) {
	for _, id := range ids {
		o.add(id)
	}
}
