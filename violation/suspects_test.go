package violation_test

import (
	"context"
	"reflect"
	"testing"

	"repro/cfd"
	"repro/cleaning"
	"repro/dataset"
	"repro/discovery"
	"repro/rules"
	"repro/violation"
)

// checkSuspectsFresh checks the engine's suspect list against repairedIDs on
// a materialised copy of its state, and returns it.
func checkSuspectsFresh(t *testing.T, eng *violation.Engine, step string) []int {
	t.Helper()
	rel, ids, err := eng.Relation()
	if err != nil {
		t.Fatal(err)
	}
	got, want := eng.Suspects(), repairedIDs(t, rel, ids, eng.RuleSet())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: suspects %v, reference %v", step, got, want)
	}
	return got
}

// TestSuspectsEpochCache checks that the per-epoch suspect cache is shared
// within an epoch and never outlives the state it was computed from: not
// across a rule swap, not across a store reopen, and not across an epoch
// re-base that brings the counter back to a cached value.
func TestSuspectsEpochCache(t *testing.T) {
	t.Run("within an epoch", func(t *testing.T) {
		eng := custEngine(t, true, violation.Options{})
		a := checkSuspectsFresh(t, eng, "loaded")
		if len(a) == 0 {
			t.Fatal("fixture must have suspects")
		}
		if b := eng.Suspects(); &a[0] != &b[0] {
			t.Fatal("a second read at the same epoch recomputed the list")
		}
	})

	t.Run("SwapRules", func(t *testing.T) {
		eng := custEngine(t, true, violation.Options{})
		before := eng.Suspects()
		if _, err := eng.SwapRules(context.Background(), swapSet()); err != nil {
			t.Fatal(err)
		}
		after := checkSuspectsFresh(t, eng, "after swap")
		if reflect.DeepEqual(before, after) {
			t.Fatalf("swap kept the suspect list %v; pick sets whose suspects differ", before)
		}
		if _, err := eng.SwapRules(context.Background(), rules.Of()); err != nil {
			t.Fatal(err)
		}
		if got := eng.Suspects(); len(got) != 0 {
			t.Fatalf("no rules, yet suspects %v", got)
		}
	})

	t.Run("store reopen", func(t *testing.T) {
		dir := t.TempDir()
		eng, st := durableEngine(t, dir, violation.StoreOptions{})
		// Sean (7) stops holding a wrong city; Ian (6) starts.
		if err := eng.Update(7, "01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Update(6, "44", "131", "4444444", "Ian", "Port PI", "MH", "01202"); err != nil {
			t.Fatal(err)
		}
		want := checkSuspectsFresh(t, eng, "before reopen")
		st.Close()
		re := reload(t, dir)
		if re.Epoch() != eng.Epoch() {
			t.Fatalf("reopened at epoch %d, closed at %d", re.Epoch(), eng.Epoch())
		}
		if got := checkSuspectsFresh(t, re, "after reopen"); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened suspects %v, before close %v", got, want)
		}
	})

	t.Run("epoch re-base", func(t *testing.T) {
		eng := custEngine(t, true, violation.Options{})
		if _, err := eng.Insert("01", "908", "1111111", "Ann", "Tree Ave.", "MH", "07974"); err != nil {
			t.Fatal(err)
		}
		epoch, cached := eng.Epoch(), eng.Suspects()
		st, err := violation.OpenStore(t.TempDir(), violation.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		eng.AttachWAL(st) // re-bases the epoch onto the empty log's 0
		// Delete cached suspects without reading Suspects on the way, so the
		// only list ever cached is the one from the old numbering.
		for i := 0; eng.Epoch() < epoch; i++ {
			if err := eng.Delete(cached[i]); err != nil {
				t.Fatal(err)
			}
		}
		if eng.Epoch() != epoch {
			t.Fatalf("epoch %d, want the cached %d", eng.Epoch(), epoch)
		}
		if got := checkSuspectsFresh(t, eng, "re-based"); reflect.DeepEqual(got, cached) {
			t.Fatalf("deleting suspects kept the list %v", got)
		}
	})
}

// TestCleaningSuspectsIsEngineSuspects checks that the batch entry point is
// the engine's definition on a fresh bulk load, relation indexes and all.
func TestCleaningSuspectsIsEngineSuspects(t *testing.T) {
	for _, fx := range fixtures(t) {
		eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.BulkLoad(fx.rel); err != nil {
			t.Fatal(err)
		}
		got, err := cleaning.Suspects(fx.rel, rules.Of(fx.rules...))
		if err != nil {
			t.Fatal(err)
		}
		if want := checkSuspectsFresh(t, eng, fx.name); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cleaning.Suspects %v, engine %v", fx.name, got, want)
		}
	}
}

// suspectsWorkload is the serving benchmark's shape at 100k tuples: a Tax
// instance loaded into an engine serving the rules FastCFD finds on its
// 2k-tuple head.
func suspectsWorkload(b *testing.B) (*violation.Engine, *cfd.Relation) {
	b.Helper()
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 100000, Arity: 7, CF: 0.7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set, err := discovery.NewEngine(discovery.AlgFastCFD, rel.Head(2000),
		discovery.WithSupport(60), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := violation.New(rel.Attributes(), set, violation.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		b.Fatal(err)
	}
	return eng, rel
}

// BenchmarkSuspects prices Engine.Suspects at 100k tuples: "cold" commits a
// one-tuple update before every (timed) read, so each read walks the rule
// indexes; "cached" reads repeatedly at one epoch.
func BenchmarkSuspects(b *testing.B) {
	eng, rel := suspectsWorkload(b)
	b.Run("cold", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			id := i % rel.Size()
			if err := eng.Update(id, rel.Row((id+1)%rel.Size())...); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			n = len(eng.Suspects())
		}
		b.ReportMetric(float64(n), "suspects")
		b.ReportMetric(float64(len(eng.Rules())), "rules")
	})
	b.Run("cached", func(b *testing.B) {
		n := len(eng.Suspects())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = len(eng.Suspects())
		}
		b.ReportMetric(float64(n), "suspects")
	})
}
