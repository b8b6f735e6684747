package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestRouteParity pins the /v1 API surface three ways: every route is served
// under /v1, every legacy alias answers with deprecation headers pointing at
// its successor (and /v1 itself does not), and API.md documents exactly the
// served routes — no more, no fewer.
func TestRouteParity(t *testing.T) {
	ts := newTestServer(t)
	s := &server{} // routes() is pure; only the handler fields differ

	probe := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	for _, rt := range s.routes() {
		path := strings.ReplaceAll(rt.pattern, "{id}", "0")
		if rt.pattern == "/violations/stream" {
			continue // long-lived; covered by TestViolationStream
		}
		v1 := probe(rt.method, "/v1"+path)
		// Routed: the mux's own not-found/method-not-allowed answers are
		// text/plain, every real handler speaks JSON.
		if ct := v1.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s /v1%s: content type %q, want JSON (unrouted?)", rt.method, path, ct)
		}
		if v1.Header.Get("Deprecation") != "" {
			t.Errorf("%s /v1%s must not carry a Deprecation header", rt.method, path)
		}
		if !rt.legacy {
			// No unversioned alias: the mux's own answer (404, or 405 when
			// another method owns the path) is text, never handler JSON.
			if legacy := probe(rt.method, path); strings.Contains(legacy.Header.Get("Content-Type"), "json") {
				t.Errorf("%s %s: /v1-only route must not have an unversioned alias", rt.method, path)
			}
			continue
		}
		legacy := probe(rt.method, path)
		// Statuses must agree on reads; mutating probes legitimately diverge
		// (the /v1 probe consumed the tuple, or holds the remine CAS guard).
		if rt.method == "GET" && legacy.StatusCode != v1.StatusCode {
			t.Errorf("%s %s: legacy status %d, /v1 status %d", rt.method, path, legacy.StatusCode, v1.StatusCode)
		}
		if legacy.Header.Get("Deprecation") != "true" {
			t.Errorf("%s %s: legacy alias must set Deprecation: true", rt.method, path)
		}
		if want := "</v1" + rt.pattern + `>; rel="successor-version"`; legacy.Header.Get("Link") != want {
			t.Errorf("%s %s: Link = %q, want %q", rt.method, path, legacy.Header.Get("Link"), want)
		}
	}

	// API.md lists exactly the served routes, as "### METHOD /v1/path".
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := regexp.MustCompile(`(?m)^### (GET|PUT|POST|DELETE) (/v1\S*)$`).FindAllStringSubmatch(string(data), -1)
	documented := make([]string, 0, len(headings))
	for _, h := range headings {
		documented = append(documented, h[1]+" "+h[2])
	}
	served := make([]string, 0, len(s.routes()))
	for _, rt := range s.routes() {
		served = append(served, rt.method+" /v1"+rt.pattern)
	}
	sort.Strings(documented)
	sort.Strings(served)
	if strings.Join(documented, "\n") != strings.Join(served, "\n") {
		t.Errorf("API.md and the route table disagree\ndocumented:\n%s\nserved:\n%s",
			strings.Join(documented, "\n"), strings.Join(served, "\n"))
	}
}

// TestErrorEnvelope drives every error path through the API and asserts the
// uniform {"error":{"code","message"}} envelope with the pinned status and
// code.
func TestErrorEnvelope(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		header     [2]string
		wantStatus int
		wantCode   string
	}{
		{"tuple-unknown-id", "GET", "/v1/tuples/4242", "", [2]string{}, 404, "not_found"},
		{"tuple-violations-unknown-id", "GET", "/v1/tuples/4242/violations", "", [2]string{}, 404, "not_found"},
		{"tuple-bad-id", "GET", "/v1/tuples/abc", "", [2]string{}, 400, "bad_request"},
		{"delete-unknown-id", "DELETE", "/v1/tuples/4242", "", [2]string{}, 404, "not_found"},
		{"insert-undecodable", "POST", "/v1/tuples", "{not json", [2]string{}, 400, "bad_request"},
		{"insert-empty", "POST", "/v1/tuples", `{}`, [2]string{}, 400, "bad_request"},
		{"insert-bad-arity", "POST", "/v1/tuples", `{"values":["too","short"]}`, [2]string{}, 422, "unprocessable"},
		{"update-bad-arity", "PUT", "/v1/tuples/0", `{"values":["too","short"]}`, [2]string{}, 422, "unprocessable"},
		{"batch-unknown-op", "POST", "/v1/batch", `{"ops":[{"op":"frobnicate"}]}`, [2]string{}, 422, "unprocessable"},
		{"batch-empty", "POST", "/v1/batch", `{"ops":[]}`, [2]string{}, 400, "bad_request"},
		{"rules-unparsable", "PUT", "/v1/rules", "this is not a rule file", [2]string{}, 400, "bad_request"},
		{"rules-unknown-attr", "PUT", "/v1/rules", "([BOGUS] -> CT, (_ || _))\n", [2]string{}, 422, "unprocessable"},
		{"rules-cas-miss", "PUT", "/v1/rules", "([AC] -> CT, (131 || EDI))\n", [2]string{"If-Match", `"not-the-version"`}, 409, "conflict"},
		{"since-bad", "GET", "/v1/violations?since=abc", "", [2]string{}, 400, "bad_request"},
		{"since-ahead", "GET", "/v1/violations?since=999999", "", [2]string{}, 410, "compacted"},
		{"limit-bad", "GET", "/v1/violations?limit=0", "", [2]string{}, 400, "bad_request"},
		{"cursor-bad", "GET", "/v1/tuples?cursor=-1", "", [2]string{}, 400, "bad_request"},
		{"suspects-cursor-bad", "GET", "/v1/suspects?cursor=x", "", [2]string{}, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header[0] != "" {
				req.Header.Set(tc.header[0], tc.header[1])
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var out struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decoding envelope: %v", err)
			}
			if out.Error.Code != tc.wantCode || out.Error.Message == "" {
				t.Fatalf("envelope = %+v, want code %q and a message", out.Error, tc.wantCode)
			}
		})
	}
}

// TestPagination pins the deterministic cursor order of the three list
// endpoints: walking pages with any limit reassembles exactly the unpaged
// response, in the same order.
func TestPagination(t *testing.T) {
	ts := newTestServer(t)

	// /v1/tuples: ascending ids, id-based cursor.
	var ids []int
	var values [][]any
	url := ts.URL + "/v1/tuples?limit=3"
	for {
		page := do(t, "GET", url, nil, http.StatusOK)
		for _, raw := range page["tuples"].([]any) {
			tu := raw.(map[string]any)
			ids = append(ids, int(tu["id"].(float64)))
			values = append(values, tu["values"].([]any))
		}
		next, ok := page["next_cursor"].(string)
		if !ok {
			break
		}
		url = ts.URL + "/v1/tuples?limit=3&cursor=" + next
	}
	if !sort.IntsAreSorted(ids) || len(ids) != 8 {
		t.Fatalf("paged tuple ids = %v, want ids 0..7 ascending", ids)
	}
	whole := do(t, "GET", ts.URL+"/v1/tuples", nil, http.StatusOK)
	if all := whole["tuples"].([]any); len(all) != len(ids) {
		t.Fatalf("unpaged %d tuples, paged %d", len(all), len(ids))
	}
	if whole["total"].(float64) != 8 {
		t.Fatalf("total = %v, want 8", whole["total"])
	}

	// /v1/violations: per-rule entries in rule order, offset cursor.
	unpaged := do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)["violations"].([]any)
	var paged []any
	url = ts.URL + "/v1/violations?limit=1"
	for {
		page := do(t, "GET", url, nil, http.StatusOK)
		paged = append(paged, page["violations"].([]any)...)
		next, ok := page["next_cursor"].(string)
		if !ok {
			break
		}
		url = ts.URL + "/v1/violations?limit=1&cursor=" + next
	}
	if fmt.Sprint(paged) != fmt.Sprint(unpaged) {
		t.Fatalf("paged violations %v, unpaged %v", paged, unpaged)
	}

	// /v1/suspects: ascending ids, id-based cursor.
	unpagedS := do(t, "GET", ts.URL+"/v1/suspects", nil, http.StatusOK)["suspects"].([]any)
	var pagedS []any
	url = ts.URL + "/v1/suspects?limit=2"
	for {
		page := do(t, "GET", url, nil, http.StatusOK)
		pagedS = append(pagedS, page["suspects"].([]any)...)
		next, ok := page["next_cursor"].(string)
		if !ok {
			break
		}
		url = ts.URL + "/v1/suspects?limit=2&cursor=" + next
	}
	if fmt.Sprint(pagedS) != fmt.Sprint(unpagedS) {
		t.Fatalf("paged suspects %v, unpaged %v", pagedS, unpagedS)
	}
}

// TestSuspectsCursorSurvivesWrites pins the id-based suspects cursor: a write
// between two page requests that makes a tuple below the cursor a suspect
// shifts the list, yet the next page neither skips nor repeats an id that is
// a suspect at both epochs.
func TestSuspectsCursorSurvivesWrites(t *testing.T) {
	ts := newTestServer(t)
	before := ints(t, do(t, "GET", ts.URL+"/v1/suspects", nil, http.StatusOK)["suspects"])
	page := do(t, "GET", ts.URL+"/v1/suspects?limit=2", nil, http.StatusOK)
	first := ints(t, page["suspects"])
	next, ok := page["next_cursor"].(string)
	if !ok || len(first) != 2 {
		t.Fatalf("first page %v of %v carries no cursor", first, before)
	}
	// Tuple 0 moves to area code 131 without the city EDI: a new suspect
	// below every id on the first page.
	do(t, "PUT", ts.URL+"/v1/tuples/0", map[string]any{
		"values": []string{"01", "131", "1111111", "Mike", "Tree Ave.", "MH", "07974"},
	}, http.StatusOK)
	after := ints(t, do(t, "GET", ts.URL+"/v1/suspects", nil, http.StatusOK)["suspects"])
	if slices.Contains(before, 0) || !slices.Contains(after, 0) {
		t.Fatalf("the write should make tuple 0 a suspect: before %v, after %v", before, after)
	}
	seen := make(map[int]int)
	for {
		page := do(t, "GET", ts.URL+"/v1/suspects?limit=2&cursor="+next, nil, http.StatusOK)
		for _, id := range ints(t, page["suspects"]) {
			seen[id]++
		}
		if next, ok = page["next_cursor"].(string); !ok {
			break
		}
	}
	for _, id := range before {
		if id > first[len(first)-1] && slices.Contains(after, id) && seen[id] != 1 {
			t.Fatalf("suspect %d listed %d times past the cursor (before %v, first page %v, after %v, rest %v)",
				id, seen[id], before, first, after, seen)
		}
	}
	for id, n := range seen {
		if n != 1 || id <= first[len(first)-1] {
			t.Fatalf("id %d listed %d times on the later pages, first page %v", id, n, first)
		}
	}
}

// TestDeltaEndpoint covers the polling contract of GET /v1/violations?since=:
// an empty delta at the head, an exact delta across a mutation, and 410 once
// the epoch is out of range (the compacted-resync path is exercised against
// a real restart in scripts/serve_smoke.sh).
func TestDeltaEndpoint(t *testing.T) {
	ts := newTestServer(t)
	full := do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)
	epoch := int(full["epoch"].(float64))

	out := do(t, "GET", fmt.Sprintf("%s/v1/violations?since=%d", ts.URL, epoch), nil, http.StatusOK)
	delta := out["delta"].(map[string]any)
	if int(out["epoch"].(float64)) != epoch || len(delta["added"].([]any)) != 0 {
		t.Fatalf("delta at head = %v", out)
	}

	// A duplicate of tuple 7 joins Sean's violating FD group: the delta must
	// carry exactly the change, not the whole report.
	ins := do(t, "POST", ts.URL+"/v1/tuples", map[string]any{
		"values": []string{"01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202"},
	}, http.StatusOK)
	id := ints(t, ins["ids"])[0]
	out = do(t, "GET", fmt.Sprintf("%s/v1/violations?since=%d", ts.URL, epoch), nil, http.StatusOK)
	if int(out["epoch"].(float64)) != epoch+1 {
		t.Fatalf("delta epoch = %v, want %d", out["epoch"], epoch+1)
	}
	delta = out["delta"].(map[string]any)
	added := delta["added"].([]any)
	if len(added) == 0 {
		t.Fatalf("delta after a violating insert = %v", delta)
	}
	dirtyAdded := ints(t, delta["dirty_added"])
	found := false
	for _, d := range dirtyAdded {
		if d == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty_added %v misses the inserted id %d", dirtyAdded, id)
	}
	if delta["rules"] != nil {
		t.Fatalf("rules = %v without a swap, want null", delta["rules"])
	}
}

// TestViolationStream exercises GET /v1/violations/stream end to end: SSE
// connect, the initial position event, ordered delta events across
// mutations, and a clean disconnect when the server shuts down.
func TestViolationStream(t *testing.T) {
	eng, err := loadEngine(config{rulesPath: "testdata/rules.txt", dataPath: "testdata/cust.csv"})
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(eng, nil, config{})
	shutdown, cancel := context.WithCancel(context.Background())
	h.baseCtx = shutdown
	ts := httptest.NewServer(h.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(cancel)

	resp, err := http.Get(ts.URL + "/v1/violations/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// events forwards each SSE event as "<event>\t<data>" and closes on EOF.
	type event struct{ name, data string }
	events := make(chan event, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var name, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && name != "":
				events <- event{name, data}
				name, data = "", ""
			}
		}
	}()
	next := func() event {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed early")
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("no event within 5s")
			panic("unreachable")
		}
	}

	ev := next()
	if ev.name != "epoch" {
		t.Fatalf("first event %q, want epoch", ev.name)
	}
	var pos struct{ Epoch uint64 }
	if err := json.Unmarshal([]byte(ev.data), &pos); err != nil {
		t.Fatal(err)
	}
	if pos.Epoch != eng.Epoch() {
		t.Fatalf("stream position %d, engine epoch %d", pos.Epoch, eng.Epoch())
	}

	// Two mutations; the stream may coalesce them, but epochs must arrive in
	// order and reach the engine's head.
	do(t, "POST", ts.URL+"/v1/tuples", map[string]any{
		"values": []string{"01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202"},
	}, http.StatusOK)
	last := pos.Epoch
	for last < pos.Epoch+1 {
		ev = next()
		if ev.name != "delta" {
			t.Fatalf("event %q, want delta", ev.name)
		}
		var d struct{ Epoch uint64 }
		if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
			t.Fatal(err)
		}
		if d.Epoch <= last {
			t.Fatalf("delta epochs out of order: %d after %d", d.Epoch, last)
		}
		last = d.Epoch
	}
	do(t, "DELETE", fmt.Sprintf("%s/v1/tuples/%d", ts.URL, 8), nil, http.StatusOK)
	for last < pos.Epoch+2 {
		ev = next()
		var d struct{ Epoch uint64 }
		if ev.name != "delta" || json.Unmarshal([]byte(ev.data), &d) != nil || d.Epoch <= last {
			t.Fatalf("bad delta event %+v after epoch %d", ev, last)
		}
		last = d.Epoch
	}

	// Server shutdown must end the stream promptly (the events channel closes
	// on EOF), not leave the client hanging.
	cancel()
	select {
	case ev, ok := <-events:
		if ok {
			t.Fatalf("unexpected event %+v after shutdown", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close at shutdown")
	}
}
