package main

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/cfd"
	"repro/cleaning"
	"repro/dataset"
	"repro/rules"
	"repro/violation"
)

// servedFrom renders an engine's state the way cfdserve serves it, as the
// oracles read it.
func servedFrom(t *testing.T, e *violation.Engine) *servedState {
	t.Helper()
	st := &servedState{tuples: map[int][]string{}, rules: e.RuleSet()}
	tuples, _, _ := e.Tuples(0, 0)
	for _, tu := range tuples {
		st.tuples[tu.ID] = tu.Values
	}
	rep := e.Report()
	doc := violationsDoc{Epoch: rep.Epoch, Dirty: rep.DirtyTuples}
	for _, v := range rep.Violations {
		doc.Violations = append(doc.Violations, ruleTuples{Rule: v.Rule.String(), Tuples: v.Tuples})
	}
	var err error
	if st.violations, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	return st
}

// fixture is a small Tax relation served under rules mined on its head, plus
// a seeded stream of acknowledged batches applied to both the engine and the
// model.
func fixture(t *testing.T) (*violation.Engine, *model, []string, [][]violation.Op, [][]int) {
	t.Helper()
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 3000, Arity: 7, CF: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set, err := headRules(t.Context(), rel)
	if err != nil {
		t.Fatal(err)
	}
	e, err := violation.New(rel.Attributes(), set, violation.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	m := newModel()
	ids := make([]int, rel.Size())
	for i := range ids {
		ids[i] = i
		m.rows[i] = rel.Row(i)
	}
	pool, err := dataset.Tax(dataset.TaxConfig{Size: 500, Arity: 7, CF: 0.7, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var poolRows [][]string
	for i := 0; i < pool.Size(); i++ {
		poolRows = append(poolRows, pool.Row(i))
	}
	own := split(ids, 1)[0]
	rng := rand.New(rand.NewSource(7))
	next := 0
	var batches [][]violation.Op
	var acks [][]int
	for b := 0; b < 20; b++ {
		ops := own.resolve(mixedOps(rng, 16, 0.2, 0.2, &next), poolRows)
		got, err := e.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		own.acknowledge(got)
		if err := m.apply(ops, got); err != nil {
			t.Fatal(err)
		}
		batches, acks = append(batches, ops), append(acks, got)
	}
	return e, m, rel.Attributes(), batches, acks
}

func TestOraclePassesOnAgreeingState(t *testing.T) {
	e, m, attrs, _, _ := fixture(t)
	if err := checkState(servedFrom(t, e), m, attrs, 2); err != nil {
		t.Fatal(err)
	}
}

func TestOracleCatchesAModelMissingOneAcknowledgedOp(t *testing.T) {
	e, _, attrs, batches, acks := fixture(t)
	served := servedFrom(t, e)
	for skip := 0; skip < len(batches[0]); skip++ {
		// Replay every acknowledged batch into a fresh model, but drop one op
		// of the first batch.
		rel, err := dataset.Tax(dataset.TaxConfig{Size: 3000, Arity: 7, CF: 0.7, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m := newModel()
		for i := 0; i < rel.Size(); i++ {
			m.rows[i] = rel.Row(i)
		}
		for b, ops := range batches {
			ids := acks[b]
			if b == 0 {
				ops = append(append([]violation.Op(nil), ops[:skip]...), ops[skip+1:]...)
				if batches[0][skip].Kind == violation.OpInsert {
					k := 0
					for _, op := range batches[0][:skip] {
						if op.Kind == violation.OpInsert {
							k++
						}
					}
					ids = append(append([]int(nil), ids[:k]...), ids[k+1:]...)
				}
			}
			if err := m.apply(ops, ids); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkState(served, m, attrs, 2); err == nil {
			t.Fatalf("dropping op %d (%s) of an acknowledged batch went unnoticed", skip, batches[0][skip].Kind)
		}
	}
}

func TestOracleCatchesAWrongReport(t *testing.T) {
	e, m, attrs, _, _ := fixture(t)
	st := servedFrom(t, e)
	var doc violationsDoc
	if err := json.Unmarshal(st.violations, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Violations) == 0 {
		t.Fatal("fixture has no violations")
	}
	doc.Violations[0].Tuples = doc.Violations[0].Tuples[1:]
	st.violations, _ = json.Marshal(doc)
	if err := checkState(st, m, attrs, 2); err == nil || !strings.Contains(err.Error(), "rule") {
		t.Fatalf("a report missing one violating tuple passed: %v", err)
	}
}

// The rescan is an independent implementation of the violation semantics;
// on a fresh load it must agree with the batch detector of repro/cleaning.
func TestNaiveRescanAgreesWithCleaningDetect(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 4000, Arity: 7, CF: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	set, err := headRules(t.Context(), rel.Head(300))
	if err != nil {
		t.Fatal(err)
	}
	// A constant rule whose constant is absent from the data, one whose LHS
	// constant is absent, and three-attribute LHSs (folded group keys)
	// exercise the edges of the grouping.
	extra := []cfd.CFD{
		{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"A1"}, RHSPattern: "nowhere"},
		{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"nowhere"}, RHSPattern: cfd.Wildcard},
		{LHS: []string{"CC", "NM", "AC"}, RHS: "STR", LHSPattern: []string{"01", "_", "_"}, RHSPattern: cfd.Wildcard},
		{LHS: []string{"CC", "NM", "AC"}, RHS: "PN", LHSPattern: []string{"_", "_", "_"}, RHSPattern: cfd.Wildcard},
	}
	set = rules.New(append(set.CFDs(), extra...), rules.Provenance{})
	rep, err := cleaning.Detect(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int][]string{}
	for i := 0; i < rel.Size(); i++ {
		rows[i] = rel.Row(i)
	}
	got, dirty := naiveViolations(rel.Attributes(), rows, set.CFDs(), 2)
	want := map[string][]int{}
	for _, v := range rep.Violations {
		want[v.Rule.String()] = v.Tuples
	}
	if len(got) != len(want) || len(dirty) != len(rep.DirtyTuples) {
		t.Fatalf("rescan: %d rules %d dirty; Detect: %d rules %d dirty", len(got), len(dirty), len(want), len(rep.DirtyTuples))
	}
	for _, g := range got {
		if w := want[g.Rule]; !slices.Equal(w, g.Tuples) {
			t.Fatalf("rule %s: rescan %d tuples, Detect %d", g.Rule, len(g.Tuples), len(w))
		}
	}
}
