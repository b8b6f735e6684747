package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery/monitor"
	"repro/obs"
	"repro/rules"
	"repro/violation"
)

// server exposes the violation engine over HTTP. The engine itself is safe
// for concurrent use — reads serve immutable epoch snapshots, mutations
// (tuple ops and live rule swaps alike) are serialised and write-ahead
// logged internally — so the handlers hold no lock of their own; the server
// only adds the persistence glue (compaction scheduling against the attached
// Store) and the rule lifecycle (PUT /rules uploads, background remining).
type server struct {
	eng          *violation.Engine
	store        *violation.Store // nil when running memory-only
	cfg          config           // compaction cadence + remine discovery knobs
	baseCtx      context.Context  // cancelled at shutdown; bounds background remines
	obs          *obsStack        // metrics registry + structured logger
	compacting   atomic.Bool
	remining     atomic.Bool // CAS guard: at most one remine at a time
	bg           sync.WaitGroup
	started      time.Time
	mon          *monitor.Monitor // -maintain loop; nil unless enabled
	lastRemineMu sync.Mutex
	lastRemine   *remineResult
	// lastRemineEpoch is the engine epoch whose data the last successful
	// remine covered; the -remine-every loop skips ticks while the epoch has
	// not moved past it. haveRemineEpoch distinguishes "no remine yet" from
	// epoch 0.
	lastRemineEpoch uint64
	haveRemineEpoch bool

	lastCompactMu  sync.Mutex
	lastCompactErr string // last background-compaction failure; "" once one succeeds
}

func newServer(eng *violation.Engine, store *violation.Store, cfg config) *server {
	st, err := newObsStack(cfg, cfg.logw)
	if err != nil {
		// Invalid -log-level/-log-format values are rejected in main before
		// the server is built; a bad value reaching here (a test constructing
		// its own config) falls back to the defaults.
		fallback := cfg
		fallback.logLevel, fallback.logFormat = "", ""
		st, _ = newObsStack(fallback, cfg.logw)
	}
	obs.InstrumentEngine(st.reg, eng)
	if store != nil {
		obs.InstrumentStore(st.reg, store)
	}
	return &server{eng: eng, store: store, cfg: cfg, obs: st, started: time.Now()}
}

// route is one API endpoint: the pattern is the path under the /v1 prefix.
// Endpoints that predate versioning are also served at their historical
// unversioned path, marked deprecated; new endpoints are /v1-only.
type route struct {
	method  string
	pattern string // path under /v1, e.g. "/violations" or "/tuples/{id}"
	legacy  bool   // also served unversioned, with Deprecation headers
	handler http.HandlerFunc
}

// routes is the single source of truth for the API surface; the route-parity
// test checks it against API.md.
func (s *server) routes() []route {
	return []route{
		{"GET", "/health", true, s.health},
		{"GET", "/rules", true, s.rules},
		{"PUT", "/rules", true, s.putRules},
		{"POST", "/rules/remine", true, s.remine},
		{"GET", "/violations", true, s.violations},
		{"GET", "/violations/stream", false, s.stream},
		{"GET", "/suspects", true, s.suspects},
		{"GET", "/tuples", false, s.listTuples},
		{"POST", "/tuples", true, s.insert},
		{"POST", "/batch", true, s.batch},
		{"GET", "/tuples/{id}", true, s.tuple},
		{"GET", "/tuples/{id}/violations", true, s.tupleViolations},
		{"PUT", "/tuples/{id}", true, s.update},
		{"DELETE", "/tuples/{id}", true, s.remove},
	}
}

// handler builds the mux from the route table: every route under /v1, legacy
// routes additionally at their unversioned path behind a deprecation wrapper.
// All bodies and responses are JSON (except the PUT rules request body, which
// is a rule file in either text or JSON form, and the violations stream,
// which is text/event-stream).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.method+" /v1"+rt.pattern, s.obs.instrument(rt.method, rt.pattern, rt.handler))
		if rt.legacy {
			mux.HandleFunc(rt.method+" "+rt.pattern, s.obs.instrument(rt.method, rt.pattern, deprecate(rt.pattern, rt.handler)))
		}
	}
	// The scrape endpoint itself is outside the /v1 contract and outside the
	// instrument middleware: scrapes should not move the series they read.
	mux.Handle("GET /metrics", s.obs.reg.Handler())
	return mux
}

// deprecate serves a legacy unversioned route with the standard deprecation
// headers (RFC 8594 successor link, draft Deprecation header) pointing at the
// /v1 pattern, so clients can migrate mechanically.
func deprecate(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "</v1"+pattern+`>; rel="successor-version"`)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error codes of the uniform error envelope {"error":{"code":..,"message":..}}.
// Every non-2xx JSON response uses it; the code is a stable machine-readable
// discriminator, the message is for humans and not part of the contract.
const (
	codeBadRequest      = "bad_request"       // 400: malformed request (bad JSON, bad query param)
	codeNotFound        = "not_found"         // 404: the tuple id does not exist
	codeConflict        = "conflict"          // 409: CAS miss (If-Match) or a remine already running
	codeCompacted       = "compacted"         // 410: ?since= epoch older than the delta history
	codePayloadTooLarge = "payload_too_large" // 413: request body over the limit
	codeUnprocessable   = "unprocessable"     // 422: well-formed but semantically invalid (arity, unknown op, bad rule)
	codeInternal        = "internal"          // 500: WAL append or other engine failure
	codeUnavailable     = "unavailable"       // 503: a shard behind the coordinator cannot answer
)

func writeError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	e := map[string]string{
		"code":    code,
		"message": err.Error(),
	}
	// The same id the middleware put in X-Request-Id, so an error report can
	// be matched to its access-log line.
	if id := obs.RequestID(r.Context()); id != "" {
		e["request_id"] = id
	}
	writeJSON(w, status, map[string]any{"error": e})
}

// writeOpError maps an engine mutation error onto a status: unknown ids are
// 404, write-ahead log failures 500, and anything else — a well-formed
// request the engine rejected (arity mismatch, unknown op kind, invalid
// rule) — 422.
func writeOpError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, violation.ErrNotFound):
		writeError(w, r, http.StatusNotFound, codeNotFound, err)
	case errors.Is(err, violation.ErrWAL):
		writeError(w, r, http.StatusInternalServerError, codeInternal, err)
	default:
		writeError(w, r, http.StatusUnprocessableEntity, codeUnprocessable, err)
	}
}

// etagList parses an If-Match/If-None-Match header into its bare entity
// tags: a comma-separated list of quoted (optionally W/-prefixed) tags, per
// RFC 9110. matchAny reports a "*" anywhere in the list, which matches every
// current version; an empty header yields (nil, false).
func etagList(header string) (tags []string, matchAny bool) {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "*" {
			return nil, true
		}
		part = strings.TrimPrefix(part, "W/")
		tags = append(tags, strings.Trim(part, `"`))
	}
	return tags, false
}

// etagMatch reports whether an If-Match/If-None-Match header matches the
// current version: "*" matches whenever a version is served, otherwise the
// version must appear among the listed tags. An empty header never matches
// (callers treat it as "header absent").
func etagMatch(header, version string) bool {
	tags, matchAny := etagList(header)
	if matchAny {
		return version != ""
	}
	for _, tag := range tags {
		if tag == version {
			return true
		}
	}
	return false
}

// pageParams parses the limit/cursor query parameters: a non-negative cursor
// (0 when absent) and a positive limit (0, meaning no limit, when absent).
func pageParams(q url.Values) (cursor, limit int, err error) {
	if c := q.Get("cursor"); c != "" {
		v, err := strconv.Atoi(c)
		if err != nil || v < 0 {
			return 0, 0, fmt.Errorf("cursor %q is not a non-negative integer", c)
		}
		cursor = v
	}
	if l := q.Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v <= 0 {
			return 0, 0, fmt.Errorf("limit %q is not a positive integer", l)
		}
		limit = v
	}
	return cursor, limit, nil
}

// pageWindow resolves the limit/cursor query parameters to a [lo,hi) window
// over n items held in a fixed deterministic order, and, when items remain
// past the window, the cursor of the next page. No limit means everything.
func pageWindow(q url.Values, n int) (lo, hi int, next string, err error) {
	lo, limit, err := pageParams(q)
	if err != nil {
		return 0, 0, "", err
	}
	lo, hi = min(lo, n), n
	if limit > 0 && lo+limit < hi {
		hi = lo + limit
		next = strconv.Itoa(hi)
	}
	return lo, hi, next, nil
}

// writeSuspects serves an ascending suspect-id list, paged by id: the cursor
// is the id to resume from (as handed back in next_cursor), the /v1/tuples
// contract, so a write between two page requests can neither skip nor repeat
// an id that stays a suspect. Node and coordinator share it.
func writeSuspects(w http.ResponseWriter, r *http.Request, ids []int) {
	cursor, limit, err := pageParams(r.URL.Query())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	lo, hi := sort.SearchInts(ids, cursor), len(ids)
	resp := map[string]any{}
	if limit > 0 && lo+limit < hi {
		hi = lo + limit
		resp["next_cursor"] = strconv.Itoa(ids[hi])
	}
	resp["suspects"] = ids[lo:hi]
	writeJSON(w, http.StatusOK, resp)
}

func pathID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

// maybeCompact starts a background snapshot compaction when enough WAL ops
// have accumulated. At most one compaction runs at a time; Store.Compact
// captures its consistent view under a read lock in O(live tuples) pointer
// work, so writers stall only for that capture, not for the decode or the
// file write.
func (s *server) maybeCompact() {
	if s.store == nil || s.cfg.compactEvery <= 0 || s.store.Pending() < s.cfg.compactEvery {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.compacting.Store(false)
		err := s.store.Compact(s.eng)
		s.lastCompactMu.Lock()
		if err != nil {
			s.lastCompactErr = err.Error()
		} else {
			s.lastCompactErr = ""
		}
		s.lastCompactMu.Unlock()
		if err != nil {
			s.logger().Error("background compaction failed", "error", err)
		} else {
			s.logger().Debug("background compaction done", "wal_pending", s.store.Pending())
		}
	}()
}

// drainBackground waits for in-flight background work — compactions and
// remine runs. Call it after the HTTP server has drained (no handler can
// start new work) and before closing the store.
func (s *server) drainBackground() { s.bg.Wait() }

// ruleStatJSON is the wire form of one rule's live discovery statistics,
// served in rule-set order by GET /v1/rules and GET /v1/health.
type ruleStatJSON struct {
	Rule       string  `json:"rule"`
	Support    int     `json:"support"`
	Groups     int     `json:"groups"`
	Violating  int     `json:"violating"`
	Confidence float64 `json:"confidence"`
}

func toRuleStatsJSON(stats []violation.RuleStat) []ruleStatJSON {
	out := make([]ruleStatJSON, len(stats))
	for i, st := range stats {
		out[i] = ruleStatJSON{
			Rule:       st.Rule.String(),
			Support:    st.Support,
			Groups:     st.Groups,
			Violating:  st.Violating,
			Confidence: st.Confidence,
		}
	}
	return out
}

func (s *server) health(w http.ResponseWriter, _ *http.Request) {
	ds := s.eng.DeltaStats()
	out := map[string]any{
		"status": "ok",
		"tuples": s.eng.Size(),
		"rules":  len(s.eng.Rules()),
		// dirty is the O(rules) per-rule sum, an upper bound across
		// overlapping rules; GET /violations has the exact set.
		"dirty":         s.eng.DirtyCount(),
		"epoch":         s.eng.Epoch(),
		"uptime":        time.Since(s.started).Round(time.Millisecond).String(),
		"rules_version": s.eng.RulesVersion(),
		// The id the next insert gets — a cluster coordinator recovers its
		// global id counter as the max across its shards.
		"next_id": s.eng.NextID(),
		// In-flight state, not just last-completed results: both booleans flip
		// while the background work runs.
		"compacting":     s.compacting.Load(),
		"remine_running": s.remining.Load(),
		"delta_ring": map[string]any{
			"occupancy":       ds.Occupancy,
			"capacity":        ds.Capacity,
			"evictions":       ds.Evictions,
			"compacted_reads": ds.CompactedReads,
			"waiters":         ds.Waiters,
		},
	}
	if s.store != nil {
		out["state_dir"] = s.store.Dir()
		out["wal_pending"] = s.store.Pending()
		s.lastCompactMu.Lock()
		if s.lastCompactErr != "" {
			out["last_compaction_error"] = s.lastCompactErr
		}
		s.lastCompactMu.Unlock()
	}
	// The live per-rule counters: what continuous maintenance watches, and
	// what an operator reads to judge how far the data has drifted from the
	// served rules without waiting for a remine.
	out["rule_stats"] = toRuleStatsJSON(s.eng.RuleStats())
	if s.mon != nil {
		out["maintain"] = s.mon.Status()
	}
	s.lastRemineMu.Lock()
	if s.lastRemine != nil {
		out["last_remine"] = s.lastRemine
	}
	s.lastRemineMu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// rules serves the engine's current rule set as rules.Set JSON — the rules
// in set order plus class counts, pattern tableaux and (when the set came
// from discovery or a remine) its provenance — alongside the serving schema
// and the set's version fingerprint, which is also sent as the ETag. A
// client that polls with If-None-Match sees 304 until a swap changes the
// rules. The ruleset document round-trips through rules.Parse, so it feeds
// straight back into cfdserve -rules, PUT /rules or cfdclean -rules.
func (s *server) rules(w http.ResponseWriter, r *http.Request) {
	// The 304 polling fast path costs only the cached digest, no set copy.
	if match := r.Header.Get("If-None-Match"); match != "" {
		if v := s.eng.RulesVersion(); etagMatch(match, v) {
			w.Header().Set("ETag", `"`+v+`"`)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	// One copy serves both the header and the body, so they cannot disagree
	// even if a swap lands between them.
	set := s.eng.RuleSet()
	version := set.Fingerprint()
	// Stats are read after the set; when a swap lands exactly between the
	// two reads the lengths diverge, and one re-read restores agreement
	// (rule swaps are rare and never back-to-back within a request).
	stats := s.eng.RuleStats()
	if len(stats) != set.Len() {
		set = s.eng.RuleSet()
		version = set.Fingerprint()
		stats = s.eng.RuleStats()
	}
	w.Header().Set("ETag", `"`+version+`"`)
	writeJSON(w, http.StatusOK, map[string]any{
		"attributes": s.eng.Attributes(),
		"ruleset":    set,
		"version":    version,
		"stats":      toRuleStatsJSON(stats),
	})
}

// maxRulesBody bounds the PUT /rules request body (32 MiB is far above any
// realistic rule file).
const maxRulesBody = 32 << 20

func ruleStrings(cfds []cfd.CFD) []string {
	out := make([]string, len(cfds))
	for i, c := range cfds {
		out[i] = c.String()
	}
	return out
}

// putRules atomically swaps the served rule set for the uploaded rule file —
// text (cfddiscover -o) or rules.Set JSON (GET /rules), sniffed — and
// responds with the delta. An If-Match header makes the swap conditional on
// the currently served rules version (the ETag of GET /rules): a mismatch is
// rejected with 409, so two operators cannot silently overwrite each other.
// The swap is write-ahead logged on a durable server, so a crash right after
// the 200 still restarts under the new rules.
func (s *server) putRules(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRulesBody+1))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxRulesBody {
		writeError(w, r, http.StatusRequestEntityTooLarge, codePayloadTooLarge, fmt.Errorf("rule file exceeds %d bytes", maxRulesBody))
		return
	}
	if match := r.Header.Get("If-Match"); match != "" {
		if v := s.eng.RulesVersion(); !etagMatch(match, v) {
			writeError(w, r, http.StatusConflict, codeConflict,
				fmt.Errorf("the served rules version is %q, which does not match If-Match %s", v, match))
			return
		}
	}
	set, err := rules.Parse(string(body))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	delta, err := s.eng.SwapRules(r.Context(), set)
	if err != nil {
		writeOpError(w, r, err)
		return
	}
	s.maybeCompact()
	writeJSON(w, http.StatusOK, map[string]any{
		"swapped": !delta.Unchanged(),
		"version": delta.New,
		"rules":   set.Len(),
		"delta": map[string]any{
			"summary":  delta.String(),
			"added":    ruleStrings(delta.Added),
			"removed":  ruleStrings(delta.Removed),
			"retained": len(delta.Retained),
		},
	})
}

// remineResult records the outcome of one remine run; /health serves the
// latest one — including failed runs, so a broken maintenance loop is loud
// in health rather than leaving the previous success on display.
type remineResult struct {
	At      time.Time `json:"at"`
	Outcome string    `json:"outcome"` // swapped | unchanged | error
	Elapsed string    `json:"elapsed"`
	Tuples  int       `json:"tuples"`
	Swapped bool      `json:"swapped"`
	Version string    `json:"version,omitempty"`
	Delta   string    `json:"delta,omitempty"`
	Error   string    `json:"error,omitempty"`

	// minedEpoch is the engine epoch the mined relation covered (bumped past
	// the swap when the run swapped cleanly); the periodic loop skips ticks
	// until the epoch moves past it. Not part of the wire result.
	minedEpoch uint64
}

// remine re-runs rule discovery over the live relation and swaps the result
// in — in the background by default (202, poll /health for last_remine), or
// synchronously with ?wait=1 (200 with the result). A CAS guard, like the
// compaction one, keeps at most one remine running; a concurrent request
// gets 409. The swap is skipped when the mined fingerprint matches the
// serving one, so a remine over unchanged data is a no-op.
func (s *server) remine(w http.ResponseWriter, r *http.Request) {
	if !s.remining.CompareAndSwap(false, true) {
		writeError(w, r, http.StatusConflict, codeConflict, errors.New("a remine is already running"))
		return
	}
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		// Synchronous: cancelled when the client goes away.
		writeJSON(w, http.StatusOK, s.remineOnce(r.Context()))
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		// Background: cancelled at shutdown, so draining never waits out a
		// long mining run.
		s.remineOnce(s.shutdownCtx())
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{"status": "remine started"})
}

// shutdownCtx returns the context background remines run under: the
// server's base context (cancelled at shutdown), or Background when main
// did not install one (tests).
func (s *server) shutdownCtx() context.Context {
	if s.baseCtx != nil {
		return s.baseCtx
	}
	return context.Background()
}

// remineOnce runs one remine (the CAS flag must be held), records the result
// for /health and releases the flag.
func (s *server) remineOnce(ctx context.Context) remineResult {
	defer s.remining.Store(false)
	start := time.Now()
	res := s.runRemine(ctx)
	res.Outcome = "unchanged"
	switch {
	case res.Error != "":
		res.Outcome = "error"
	case res.Swapped:
		res.Outcome = "swapped"
	}
	s.obs.remineTotal.With(res.Outcome).Inc()
	s.obs.remineDur.ObserveSince(start)
	s.lastRemineMu.Lock()
	s.lastRemine = &res
	if res.Error == "" {
		// Only completed runs move the skip baseline: after a failure the
		// next periodic tick retries instead of skipping.
		s.lastRemineEpoch, s.haveRemineEpoch = res.minedEpoch, true
	}
	s.lastRemineMu.Unlock()
	return res
}

func (s *server) runRemine(ctx context.Context) (res remineResult) {
	start := time.Now()
	res = remineResult{At: start}
	defer func() { res.Elapsed = time.Since(start).Round(time.Millisecond).String() }()
	// Captured before Relation(), so it never exceeds the epoch the mined
	// copy reflects: a skip decision based on it is always conservative.
	res.minedEpoch = s.eng.Epoch()
	rel, _, err := s.eng.Relation()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Tuples = rel.Size()
	if rel.Size() == 0 {
		// Mining nothing would swap in the empty rule set and silently stop
		// checking anything; refuse instead.
		res.Error = "no live tuples to mine rules from"
		return res
	}
	lastFound := 0
	set, err := discoverRules(ctx, rel, s.cfg, s.cfg.remineLimit, func(found int) {
		// The hook reports the cumulative count; convert it to increments so
		// the counter keeps rising monotonically across remine runs. The
		// non-atomic lastFound is safe because WithProgress guarantees serial
		// invocation regardless of the worker count (see discovery.Engine).
		if found > lastFound {
			s.obs.rulesStreamed.Add(uint64(found - lastFound))
			lastFound = found
		}
	})
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Version = set.Fingerprint()
	if res.Version == s.eng.RulesVersion() {
		return res // same rules: keep the serving set (and its indexes)
	}
	delta, err := s.eng.SwapRules(ctx, set)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	s.maybeCompact()
	res.Swapped = true
	res.Delta = delta.String()
	// When our swap was the only write since the capture, the post-swap
	// epoch is fully covered too; otherwise stay at the conservative
	// capture (the interleaved writes deserve the next tick's look).
	if e := s.eng.Epoch(); e == res.minedEpoch+1 {
		res.minedEpoch = e
	}
	s.logger().Info("remine swapped rules", "tuples", rel.Size(), "delta", delta.String(), "version", res.Version)
	return res
}

// remineLoop drives the -remine-every cadence: a tick starts a remine only
// when the engine epoch has moved since the last completed run — an idle
// server performs zero discovery runs, each skipped tick counted under
// cfd_remine_total{outcome="skipped"}. It exits when ctx is cancelled
// (shutdown), and the tick's run is cancelled by the same context, so
// shutdown never waits out a long mining run.
func (s *server) remineLoop(ctx context.Context, every time.Duration) {
	// Seed the skip baseline from the head epoch: the data the server booted
	// with is what the serving rules were mined from (or uploaded for), so
	// an untouched engine needs no first run either.
	s.lastRemineMu.Lock()
	if !s.haveRemineEpoch {
		s.lastRemineEpoch, s.haveRemineEpoch = s.eng.Epoch(), true
	}
	s.lastRemineMu.Unlock()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.lastRemineMu.Lock()
			skip := s.haveRemineEpoch && s.eng.Epoch() == s.lastRemineEpoch
			s.lastRemineMu.Unlock()
			if skip {
				s.obs.remineTotal.With("skipped").Inc()
				continue
			}
			if s.remining.CompareAndSwap(false, true) {
				s.remineOnce(ctx)
			}
		}
	}
}

// maintainRemine is the monitor's remine callback in -maintain mode: one
// bounded remine through the same CAS guard, result recording and metrics as
// every other remine path. A run already in flight (a concurrent manual
// POST /v1/rules/remine) is an error, so the monitor keeps the trigger
// armed and retries after its pacing interval.
func (s *server) maintainRemine(ctx context.Context, tr monitor.Trigger) error {
	if !s.remining.CompareAndSwap(false, true) {
		return errors.New("a remine is already running")
	}
	s.logger().Info("maintenance remine triggered",
		"reason", tr.Reason, "rule", tr.Rule, "detail", tr.Detail, "epoch", tr.Epoch)
	res := s.remineOnce(ctx)
	if res.Error != "" {
		return errors.New(res.Error)
	}
	return nil
}

type violationJSON struct {
	Rule   string `json:"rule"`
	Tuples []int  `json:"tuples"`
}

func toViolationJSON(vs []violation.Violation) []violationJSON {
	out := make([]violationJSON, 0, len(vs))
	for _, v := range vs {
		out = append(out, violationJSON{Rule: v.Rule.String(), Tuples: v.Tuples})
	}
	return out
}

// deltaDoc is the wire form of a violation.Delta: one mutation epoch's (or a
// merged range's) exact change to the violation report. rules is present only
// when the range contains a rule swap, and then carries the full replacement
// rule list the added/removed entries are relative to.
type deltaDoc struct {
	Epoch        uint64          `json:"epoch"`
	Added        []violationJSON `json:"added"`
	Removed      []violationJSON `json:"removed"`
	DirtyAdded   []int           `json:"dirty_added"`
	DirtyRemoved []int           `json:"dirty_removed"`
	// Rules is null when the span contains no rule swap; on a swap it is the
	// full replacement rule list, possibly empty.
	Rules []string `json:"rules"`
}

func intsOrEmpty(v []int) []int {
	if v == nil {
		return []int{}
	}
	return v
}

func newDeltaDoc(d *violation.Delta) deltaDoc {
	doc := deltaDoc{
		Epoch:        d.Epoch,
		Added:        toViolationJSON(d.Added),
		Removed:      toViolationJSON(d.Removed),
		DirtyAdded:   intsOrEmpty(d.DirtyAdded),
		DirtyRemoved: intsOrEmpty(d.DirtyRemoved),
	}
	if d.Rules != nil {
		doc.Rules = ruleStrings(d.Rules)
	}
	return doc
}

// violations serves the violation state. Without parameters: the full report
// from one immutable epoch snapshot, consistent even while writers proceed.
// With ?since=<epoch>: the exact delta between that epoch and now, in
// O(changes) — 410 with code "compacted" when the epoch has left the bounded
// delta history, telling the client to resync with a full read. limit/cursor
// page the full report over its per-rule entries, which are in rule order.
func (s *server) violations(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if raw := q.Get("since"); raw != "" {
		since, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("since %q is not an epoch", raw))
			return
		}
		d, err := s.eng.Changes(since)
		if err != nil {
			writeError(w, r, http.StatusGone, codeCompacted, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"epoch": d.Epoch, "delta": newDeltaDoc(d)})
		return
	}
	rep := s.eng.Report()
	out := toViolationJSON(rep.Violations)
	lo, hi, next, err := pageWindow(q, len(out))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	resp := map[string]any{
		"epoch":         rep.Epoch,
		"violations":    out[lo:hi],
		"dirty":         rep.DirtyTuples,
		"rules_checked": rep.RulesChecked,
	}
	if next != "" {
		resp["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

// stream serves violation deltas as server-sent events: an initial "epoch"
// event naming the stream position, then one "delta" event per change (the
// event id is the delta's epoch, so Last-Event-ID style resume maps onto
// ?since=). A client that connects with a ?since= epoch already outside the
// delta history gets a terminal "compacted" event and must resync with a
// full read. The stream ends when the client disconnects or the server shuts
// down.
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, codeInternal, errors.New("streaming is unsupported by this connection"))
		return
	}
	cur := s.eng.Epoch()
	if raw := r.URL.Query().Get("since"); raw != "" {
		since, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("since %q is not an epoch", raw))
			return
		}
		cur = since
	}
	// The request context ends when the client goes away; fold in the server
	// shutdown context so graceful shutdown does not wait out open streams.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.shutdownCtx(), cancel)()

	s.obs.sse.Inc()
	defer s.obs.sse.Dec()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: epoch\ndata: {\"epoch\":%d}\n\n", cur)
	fl.Flush()
	for {
		if _, err := s.eng.WaitChange(ctx, cur); err != nil {
			return // client disconnected or server shutting down
		}
		d, err := s.eng.Changes(cur)
		if err != nil {
			// The client fell behind the delta history: tell it to resync.
			fmt.Fprintf(w, "event: compacted\ndata: {\"error\":{\"code\":%q,\"message\":%q}}\n\n", codeCompacted, err.Error())
			fl.Flush()
			return
		}
		cur = d.Epoch
		payload, err := json.Marshal(newDeltaDoc(d))
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: delta\ndata: %s\n\n", d.Epoch, payload)
		fl.Flush()
	}
}

// suspects serves the repair view: Engine.Suspects, computed from the live
// rule indexes and cached per epoch.
func (s *server) suspects(w http.ResponseWriter, r *http.Request) {
	writeSuspects(w, r, s.eng.Suspects())
}

type tupleJSON struct {
	ID     int      `json:"id"`
	Values []string `json:"values"`
}

// listTuples pages through the live tuples in ascending id order — the
// bulk-export counterpart of POST /v1/tuples. The cursor is the id to resume
// from (as handed back in next_cursor), so a page stays correct even when
// tuples are inserted or deleted between requests.
func (s *server) listTuples(w http.ResponseWriter, r *http.Request) {
	start, limit, err := pageParams(r.URL.Query())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	tuples, next, more := s.eng.Tuples(start, limit)
	out := make([]tupleJSON, len(tuples))
	for i, t := range tuples {
		out[i] = tupleJSON{ID: t.ID, Values: t.Values}
	}
	resp := map[string]any{"tuples": out, "total": s.eng.Size()}
	if more {
		resp["next_cursor"] = strconv.Itoa(next)
	}
	writeJSON(w, http.StatusOK, resp)
}

// insertRequest accepts either a single tuple ("values") or a batch ("rows").
type insertRequest struct {
	Values []string   `json:"values,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
}

func (s *server) insert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	rows := req.Rows
	if len(req.Values) > 0 {
		rows = append(rows, req.Values)
	}
	if len(rows) == 0 {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("body must carry \"values\" or \"rows\""))
		return
	}
	ops := make([]violation.Op, len(rows))
	for i, row := range rows {
		ops[i] = violation.Op{Kind: violation.OpInsert, Values: row}
	}
	// One atomic batch: either every row is inserted (and write-ahead
	// logged as one record) or none is.
	ids, err := s.eng.ApplyBatch(ops)
	if err != nil {
		writeOpError(w, r, err)
		return
	}
	s.maybeCompact()
	writeJSON(w, http.StatusOK, map[string]any{
		"ids":    ids,
		"tuples": s.eng.Size(),
		"dirty":  s.eng.DirtyCount(),
	})
}

// batchRequest is the body of POST /batch: ops applied in order as one
// atomic, write-ahead-logged mutation.
type batchRequest struct {
	Ops []violation.Op `json:"ops"`
}

func (s *server) batch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("body must carry a non-empty \"ops\" array"))
		return
	}
	ids, err := s.eng.ApplyBatch(req.Ops)
	if err != nil {
		writeOpError(w, r, err)
		return
	}
	s.maybeCompact()
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": len(req.Ops),
		"ids":     ids,
		"tuples":  s.eng.Size(),
		"dirty":   s.eng.DirtyCount(),
	})
}

func (s *server) tuple(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	row, err := s.eng.Row(id)
	if err != nil {
		writeError(w, r, http.StatusNotFound, codeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "values": row})
}

func (s *server) tupleViolations(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	rules, err := s.eng.TupleViolations(id)
	if err != nil {
		writeError(w, r, http.StatusNotFound, codeNotFound, err)
		return
	}
	out := make([]string, len(rules))
	for i, rule := range rules {
		out[i] = rule.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "violated": out})
}

func (s *server) update(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if len(req.Values) == 0 {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("body must carry \"values\""))
		return
	}
	if err := s.eng.Update(id, req.Values...); err != nil {
		writeOpError(w, r, err)
		return
	}
	s.maybeCompact()
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "dirty": s.eng.DirtyCount()})
}

func (s *server) remove(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if err := s.eng.Delete(id); err != nil {
		writeOpError(w, r, err)
		return
	}
	s.maybeCompact()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     id,
		"tuples": s.eng.Size(),
		"dirty":  s.eng.DirtyCount(),
	})
}

// serving bundles what main (and the tests) boot: the engine plus its
// optional persistence.
type serving struct {
	eng   *violation.Engine
	store *violation.Store
}

// close compacts a final snapshot (so the next start replays no WAL) and
// closes the store. Memory-only servings close trivially.
func (sv *serving) close() error {
	if sv.store == nil {
		return nil
	}
	if err := sv.store.Compact(sv.eng); err != nil {
		sv.store.Close()
		return err
	}
	return sv.store.Close()
}

// buildServing assembles the serving state from the command-line
// configuration. With -state it prefers the state directory: when the
// directory already holds a snapshot, the engine — rules, tuples, ids — is
// rebuilt from it (WAL replayed) and -rules/-data/-sample are ignored;
// otherwise the engine is built as in a memory-only run, a first snapshot is
// compacted, and from then on every mutation is write-ahead logged.
func buildServing(cfg config) (*serving, error) {
	if cfg.statePath == "" {
		eng, err := loadEngine(cfg)
		if err != nil {
			return nil, err
		}
		return &serving{eng: eng}, nil
	}
	store, err := violation.OpenStore(cfg.statePath, violation.StoreOptions{Sync: cfg.fsync})
	if err != nil {
		return nil, err
	}
	eng, restored, err := store.Load(violation.Options{Workers: cfg.workers})
	if err != nil {
		store.Close()
		return nil, err
	}
	if restored {
		if cfg.rulesPath != "" || cfg.dataPath != "" || cfg.samplePath != "" {
			slog.Warn("state directory has a snapshot; ignoring -rules/-data/-sample", "state_dir", cfg.statePath)
		}
	} else {
		eng, err = loadEngine(cfg)
		if err != nil {
			store.Close()
			return nil, err
		}
		// The initial bulk load is captured by a snapshot, not the WAL.
		if err := store.Compact(eng); err != nil {
			store.Close()
			return nil, err
		}
	}
	eng.AttachWAL(store)
	return &serving{eng: eng, store: store}, nil
}

// loadEngine builds the serving engine from the command-line configuration:
// a rule set from a rule file (text or JSON, sniffed by rules.Load) or
// discovered on a trusted sample, the schema from -data, -schema or the
// sample, and an optional initial bulk load of -data.
func loadEngine(cfg config) (*violation.Engine, error) {
	var set *rules.Set
	var sampleRel *cfd.Relation
	if cfg.samplePath != "" {
		var err error
		sampleRel, err = loadCSV(cfg.samplePath)
		if err != nil {
			return nil, err
		}
	}
	switch {
	case cfg.rulesPath != "":
		var err error
		set, err = rules.Load(cfg.rulesPath)
		if err != nil {
			return nil, err
		}
	case sampleRel != nil:
		var err error
		set, err = discoverRules(context.Background(), sampleRel, cfg, 0, nil)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("either -rules or -sample is required")
	}

	var initial *cfd.Relation
	if cfg.dataPath != "" {
		var err error
		initial, err = loadCSV(cfg.dataPath)
		if err != nil {
			return nil, err
		}
	}
	attrs := cfg.schema
	switch {
	case len(attrs) > 0:
	case initial != nil:
		attrs = initial.Attributes()
	case sampleRel != nil:
		attrs = sampleRel.Attributes()
	default:
		return nil, fmt.Errorf("the schema is unknown: pass -data, -sample or -schema")
	}
	eng, err := violation.New(attrs, set, violation.Options{Workers: cfg.workers})
	if err != nil {
		return nil, err
	}
	if initial != nil {
		if err := eng.BulkLoad(initial); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

func loadCSV(path string) (*cfd.Relation, error) {
	return dataset.LoadCSVFile(path)
}
