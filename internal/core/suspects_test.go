package core_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// suspectIndex is a two-attribute (LHS 0, RHS 1) rule index whose RHS values
// are interned through dict, with the decoded-value order the engine passes.
type suspectIndex struct {
	ix   *core.RuleIndex
	dict *core.Dict
	rows map[int][]int32
}

func newSuspectIndex(rhsConst string) *suspectIndex {
	s := &suspectIndex{dict: core.NewDict(), rows: make(map[int][]int32)}
	tp := core.NewPattern(2)
	if rhsConst != "" {
		tp[1] = s.dict.Encode(rhsConst)
	}
	s.ix = core.NewRuleIndex(core.CFD{LHS: core.NewAttrSet(0), RHS: 1, Tp: tp})
	return s
}

func (s *suspectIndex) insert(id int, lhs int32, rhs string) {
	s.rows[id] = []int32{lhs, s.dict.Encode(rhs)}
	s.ix.Insert(id, s.rows[id])
}

func (s *suspectIndex) delete(id int) {
	s.ix.Delete(id, s.rows[id])
	delete(s.rows, id)
}

func (s *suspectIndex) suspects() []int {
	out := s.ix.Suspects(func(a, b int32) bool { return s.dict.Value(a) < s.dict.Value(b) })
	sort.Ints(out)
	return out
}

func (s *suspectIndex) expect(t *testing.T, step string, want ...int) {
	t.Helper()
	if got := s.suspects(); !equalInts(got, want) {
		t.Fatalf("%s: suspects = %v, want %v", step, got, want)
	}
}

// TestRuleIndexSuspectsTieBreak pins the tie-break to the decoded values: "b"
// is interned before "a", so a code-order tie-break would keep the "b"
// tuples and suspect the "a" ones.
func TestRuleIndexSuspectsTieBreak(t *testing.T) {
	s := newSuspectIndex("")
	s.insert(0, 0, "b")
	s.insert(1, 0, "b")
	s.insert(2, 0, "a")
	s.insert(3, 0, "a")
	s.insert(4, 1, "z") // a clean group contributes nothing
	s.expect(t, "2-2 tie", 0, 1)
	s.insert(5, 0, "b")
	s.expect(t, "b majority", 2, 3)
	s.delete(5)
	s.delete(0)
	s.expect(t, "a majority", 1)
	s.delete(1)
	s.expect(t, "healed group")
}

// TestRuleIndexSuspectsSpill checks the majority across the inline count
// slots and the spill map: with four distinct RHS values in one group, the
// majority and a tie both live in the spill.
func TestRuleIndexSuspectsSpill(t *testing.T) {
	s := newSuspectIndex("")
	s.insert(0, 7, "y") // slot 1
	s.insert(1, 7, "w") // slot 2
	for id := 2; id < 5; id++ {
		s.insert(id, 7, "x") // spill, 3 members
	}
	s.insert(5, 7, "z") // spill
	s.insert(6, 7, "z")
	s.expect(t, "spilled majority", 0, 1, 5, 6)
	s.delete(2)
	s.expect(t, "x-z tie in the spill goes to x", 0, 1, 5, 6)
	s.delete(3)
	s.expect(t, "z majority", 0, 1, 4)
	s.delete(5)
	s.delete(6)
	s.insert(7, 7, "y")
	s.expect(t, "inline majority after the spill drains", 1, 4)
}

// TestRuleIndexSuspectsConstantOutsideDomain checks a constant-RHS rule whose
// constant no tuple carries: every tuple matching the LHS is a suspect, even
// in groups that agree on the RHS among themselves.
func TestRuleIndexSuspectsConstantOutsideDomain(t *testing.T) {
	s := newSuspectIndex("c")
	s.insert(0, 0, "a")
	s.insert(1, 0, "a")
	s.insert(2, 1, "b")
	s.expect(t, "constant never seen", 0, 1, 2)
	s.insert(3, 1, "c")
	s.expect(t, "constant arrives", 0, 1, 2)
	s.delete(2)
	s.expect(t, "group 1 healed", 0, 1)
}

// naiveSuspects recomputes the suspect definition from scratch over the live
// rows: group the LHS-matching rows by LHS codes, and in each group keep the
// rows whose RHS value differs from the constant or, for a variable rule,
// from the most frequent value (ties to the smallest string). A clean group
// has no such row, so it needs no separate test.
func naiveSuspects(r *core.Relation, c core.CFD, live map[int]bool) []int {
	attrs := c.LHS.Attrs()
	groups := make(map[string][]int)
	for t := range live {
		key := ""
		matched := true
		for _, a := range attrs {
			if p := c.Tp[a]; p != core.Wildcard && r.Value(t, a) != p {
				matched = false
			}
			key += string(rune(r.Value(t, a))) + "\x00"
		}
		if matched {
			groups[key] = append(groups[key], t)
		}
	}
	value := func(t int) string { return r.Dict(c.RHS).Value(r.Value(t, c.RHS)) }
	var out []int
	for _, g := range groups {
		counts := make(map[string]int)
		for _, t := range g {
			counts[value(t)]++
		}
		want := ""
		if p := c.Tp[c.RHS]; p != core.Wildcard {
			want = r.Dict(c.RHS).Value(p)
		} else {
			most := 0
			for v, n := range counts {
				if n > most || (n == most && v < want) {
					want, most = v, n
				}
			}
		}
		for _, t := range g {
			if value(t) != want {
				out = append(out, t)
			}
		}
	}
	sort.Ints(out)
	return out
}

// TestRuleIndexSuspectsMatchesNaive checks Suspects against naiveSuspects on
// random relations and rules, after the load and after random deletes.
func TestRuleIndexSuspectsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		r := fixture.Random(int64(300+trial), 40, []int{2, 3, 5, 4})
		c := randomVindexCFD(rng, r)
		ix := core.NewRuleIndex(c)
		live := make(map[int]bool)
		for t0 := 0; t0 < r.Size(); t0++ {
			ix.Insert(t0, r.CodedRow(t0))
			live[t0] = true
		}
		dict := r.Dict(c.RHS)
		less := func(a, b int32) bool { return dict.Value(a) < dict.Value(b) }
		for step := 0; step < 3; step++ {
			got := ix.Suspects(less)
			sort.Ints(got)
			if want := naiveSuspects(r, c, live); !equalInts(got, want) {
				t.Fatalf("trial %d step %d: Suspects = %v, naive = %v for %s", trial, step, got, want, c.Format(r))
			}
			for t0 := range live {
				if rng.Intn(3) == 0 {
					ix.Delete(t0, r.CodedRow(t0))
					delete(live, t0)
				}
			}
		}
	}
}
