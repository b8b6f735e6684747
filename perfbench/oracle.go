package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// model is the benchmark's own record of every acknowledged write: tuple id
// to values, updated from the ids the server hands back. The oracles compare
// the served state against it.
type model struct {
	mu   sync.Mutex
	rows map[int][]string
}

func newModel() *model { return &model{rows: map[int][]string{}} }

// apply records an acknowledged batch: the i-th insert of ops received ids[i].
func (m *model) apply(ops []violation.Op, ids []int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := 0
	for _, op := range ops {
		switch op.Kind {
		case violation.OpInsert:
			if next >= len(ids) {
				return fmt.Errorf("batch acknowledged %d ids for more inserts", len(ids))
			}
			m.rows[ids[next]] = op.Values
			next++
		case violation.OpUpdate:
			m.rows[op.ID] = op.Values
		case violation.OpDelete:
			delete(m.rows, op.ID)
		}
	}
	if next != len(ids) {
		return fmt.Errorf("batch acknowledged %d ids for %d inserts", len(ids), next)
	}
	return nil
}

func (m *model) get(id int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rows[id]
}

func (m *model) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rows)
}

// tuplesDoc, violationsDoc and ruleTuples are the served documents the
// oracles read.
type tuplesDoc struct {
	Tuples []struct {
		ID     int      `json:"id"`
		Values []string `json:"values"`
	} `json:"tuples"`
	NextCursor string `json:"next_cursor"`
}

type ruleTuples struct {
	Rule   string `json:"rule"`
	Tuples []int  `json:"tuples"`
}

type violationsDoc struct {
	Epoch      uint64       `json:"epoch"`
	Violations []ruleTuples `json:"violations"`
	Dirty      []int        `json:"dirty"`
}

// servedState is one full read of a server: every tuple page and the full
// violation report, raw, so a later read can be compared byte for byte.
type servedState struct {
	pages      [][]byte
	tuples     map[int][]string
	violations []byte
	rules      *rules.Set
	export     time.Duration // paging every tuple out, requests only
}

// readState pages through GET /v1/tuples and reads GET /v1/violations and
// GET /v1/rules.
func readState(ctx context.Context, c *client) (*servedState, error) {
	st := &servedState{tuples: map[int][]string{}}
	// export times the requests; this process's collector must not run
	// inside them.
	defer pauseGC()()
	cursor := ""
	for {
		q := url.Values{"limit": {"5000"}}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		start := time.Now()
		body, err := c.get(ctx, "/v1/tuples?"+q.Encode())
		st.export += time.Since(start)
		if err != nil {
			return nil, err
		}
		st.pages = append(st.pages, body)
		var doc tuplesDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("decoding tuples page: %w", err)
		}
		for _, t := range doc.Tuples {
			if _, dup := st.tuples[t.ID]; dup {
				return nil, fmt.Errorf("tuple %d served on two pages", t.ID)
			}
			st.tuples[t.ID] = t.Values
		}
		if doc.NextCursor == "" {
			break
		}
		cursor = doc.NextCursor
	}
	var err error
	if st.violations, err = c.get(ctx, "/v1/violations"); err != nil {
		return nil, err
	}
	body, err := c.get(ctx, "/v1/rules")
	if err != nil {
		return nil, err
	}
	st.rules = new(rules.Set)
	if err := json.Unmarshal(body, st.rules); err != nil {
		return nil, fmt.Errorf("decoding rules: %w", err)
	}
	return st, nil
}

// checkState runs the serving oracles on one full read: the tuples equal the
// model, and the report equals a naive rescan of the model under the served
// rules.
func checkState(st *servedState, m *model, attrs []string, workers int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(st.tuples) != len(m.rows) {
		return fmt.Errorf("served %d tuples, the model holds %d", len(st.tuples), len(m.rows))
	}
	for id, want := range m.rows {
		if got, ok := st.tuples[id]; !ok || !slices.Equal(got, want) {
			return fmt.Errorf("tuple %d: served %q, the model holds %q", id, got, want)
		}
	}
	var doc violationsDoc
	if err := json.Unmarshal(st.violations, &doc); err != nil {
		return fmt.Errorf("decoding violations: %w", err)
	}
	want, dirty := naiveViolations(attrs, m.rows, st.rules.CFDs(), workers)
	return compareReport(doc, want, dirty)
}

func compareReport(doc violationsDoc, want []ruleTuples, dirty []int) error {
	got := make(map[string][]int, len(doc.Violations))
	for _, v := range doc.Violations {
		got[v.Rule] = v.Tuples
	}
	if len(got) != len(want) {
		return fmt.Errorf("report lists %d violated rules, the rescan finds %d", len(got), len(want))
	}
	for _, w := range want {
		if !slices.Equal(got[w.Rule], w.Tuples) {
			return fmt.Errorf("rule %s: report has %d violating tuples, the rescan %d", w.Rule, len(got[w.Rule]), len(w.Tuples))
		}
	}
	if !slices.Equal(doc.Dirty, dirty) {
		return fmt.Errorf("report has %d dirty tuples, the rescan %d", len(doc.Dirty), len(dirty))
	}
	return nil
}

// naiveViolations rescans rows under each rule without the engine's indexes:
// tuples matching the LHS pattern are grouped by their LHS values, and every
// tuple of a group is violating when the group disagrees on the RHS or, for a
// constant RHS, when any of its tuples misses the constant. Rules sharing
// their LHS and RHS attributes share one grouping pass over the rows; each
// rule then picks its groups by its pattern constants. It returns the
// violated rules in rule order with ascending tuple ids, and the dirty set.
func naiveViolations(attrs []string, rows map[int][]string, rs []cfd.CFD, workers int) ([]ruleTuples, []int) {
	tab := encodeRows(attrs, rows)
	byShape := map[string][]int{}
	var shapes []string
	for i, r := range rs {
		k := strings.Join(r.LHS, ",") + "->" + r.RHS
		if _, ok := byShape[k]; !ok {
			shapes = append(shapes, k)
		}
		byShape[k] = append(byShape[k], i)
	}
	perRule := make([][]int, len(rs))
	var wg sync.WaitGroup
	next := make(chan []int)
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for members := range next {
				tab.rescanShape(rs, members, perRule)
			}
		}()
	}
	for _, k := range shapes {
		next <- byShape[k]
	}
	close(next)
	wg.Wait()
	var out []ruleTuples
	seen := map[int]bool{}
	for i, tuples := range perRule {
		if len(tuples) == 0 {
			continue
		}
		out = append(out, ruleTuples{Rule: rs[i].String(), Tuples: tuples})
		for _, t := range tuples {
			seen[t] = true
		}
	}
	dirty := make([]int, 0, len(seen))
	for t := range seen {
		dirty = append(dirty, t)
	}
	sort.Ints(dirty)
	return out, dirty
}

// codedRows is the model dictionary-encoded per attribute, rows in id order.
type codedRows struct {
	pos   map[string]int
	ids   []int
	cols  [][]int32
	dicts []map[string]int32
}

func encodeRows(attrs []string, rows map[int][]string) *codedRows {
	t := &codedRows{pos: map[string]int{}, cols: make([][]int32, len(attrs)), dicts: make([]map[string]int32, len(attrs))}
	for i, a := range attrs {
		t.pos[a] = i
		t.dicts[i] = map[string]int32{}
	}
	for id := range rows {
		t.ids = append(t.ids, id)
	}
	sort.Ints(t.ids)
	for a := range attrs {
		col := make([]int32, len(t.ids))
		for i, id := range t.ids {
			v := rows[id][a]
			c, ok := t.dicts[a][v]
			if !ok {
				c = int32(len(t.dicts[a]))
				t.dicts[a][v] = c
			}
			col[i] = c
		}
		t.cols[a] = col
	}
	return t
}

// rescanShape groups every row by the LHS values of the rules members, which
// share LHS and RHS attributes, and writes each rule's violating tuples.
func (t *codedRows) rescanShape(rs []cfd.CFD, members []int, perRule [][]int) {
	type group struct {
		first    int // row index of the first member, whose LHS codes the group has
		rhs      int32
		disagree bool
		rows     []int
	}
	shape := rs[members[0]]
	lhs := make([]int, len(shape.LHS))
	for i, a := range shape.LHS {
		lhs[i] = t.pos[a]
	}
	rhs := t.pos[shape.RHS]
	// Group keys pack up to two codes; wider LHSs fold pairs through an
	// interning table, which keeps the key injective.
	pairs := map[uint64]uint64{}
	key := func(codes []int32) uint64 {
		if len(codes) == 0 {
			return 0
		}
		k := uint64(uint32(codes[0]))
		for i, c := range codes[1:] {
			k = k<<32 | uint64(uint32(c))
			if i+2 < len(codes) {
				id, ok := pairs[k]
				if !ok {
					id = uint64(len(pairs))
					pairs[k] = id
				}
				k = id
			}
		}
		return k
	}
	groups := map[uint64]*group{}
	codes := make([]int32, len(lhs))
	for r := range t.ids {
		for i, a := range lhs {
			codes[i] = t.cols[a][r]
		}
		k := key(codes)
		g := groups[k]
		if g == nil {
			g = &group{first: r, rhs: t.cols[rhs][r]}
			groups[k] = g
		}
		g.rows = append(g.rows, r)
		if t.cols[rhs][r] != g.rhs {
			g.disagree = true
		}
	}
	groupList := make([]*group, 0, len(groups))
	for _, g := range groups {
		groupList = append(groupList, g)
	}
	index := make([]map[int32][]*group, len(lhs))
	byValue := func(i int) map[int32][]*group {
		if index[i] == nil {
			index[i] = map[int32][]*group{}
			for _, g := range groupList {
				c := t.cols[lhs[i]][g.first]
				index[i][c] = append(index[i][c], g)
			}
		}
		return index[i]
	}
	for _, ri := range members {
		r := rs[ri]
		// Pattern constants as codes: -1 for the wildcard, and a constant
		// that no tuple carries matches nothing (LHS) or nothing (RHS).
		pat := make([]int32, len(lhs))
		matchable, constant := true, true
		for i, v := range r.LHSPattern {
			pat[i] = -1
			if v == cfd.Wildcard {
				constant = false
				continue
			}
			c, ok := t.dicts[lhs[i]][v]
			matchable = matchable && ok
			pat[i] = c
		}
		rhsConst, hasConst := int32(-1), r.RHSPattern != cfd.Wildcard
		if hasConst {
			if c, ok := t.dicts[rhs][r.RHSPattern]; ok {
				rhsConst = c
			}
		}
		bad := func(g *group) bool { return g.disagree || (hasConst && g.rhs != rhsConst) }
		var out []int
		switch {
		case !matchable:
		case constant:
			if g := groups[key(pat)]; g != nil && bad(g) {
				out = append(out, g.rows...)
			}
		default:
			// Only groups carrying the first constant can match.
			cands := groupList
			for i, c := range pat {
				if c >= 0 {
					cands = byValue(i)[c]
					break
				}
			}
		next:
			for _, g := range cands {
				for i, a := range lhs {
					if pat[i] >= 0 && t.cols[a][g.first] != pat[i] {
						continue next
					}
				}
				if bad(g) {
					out = append(out, g.rows...)
				}
			}
		}
		for i, row := range out {
			out[i] = t.ids[row]
		}
		sort.Ints(out)
		perRule[ri] = out
	}
}
