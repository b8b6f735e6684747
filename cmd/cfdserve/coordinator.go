package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/cluster"
)

// coordServer is the coordinator mode of cfdserve: a thin stateless HTTP
// front over a fleet of shard nodes. It holds no engine and no store — every
// request is routed (writes) or scatter-gathered (reads) through the
// cluster handle, and the response shapes mirror the single-node API so the
// same clients work against either. See the "Cluster" section of
// ARCHITECTURE.md for the partitioning and consistency argument.
type coordServer struct {
	cl  *cluster.Cluster
	obs *obsStack
}

// coordRoutes is the coordinator's API surface — the single-node routes that
// make sense across a fleet. No legacy aliases (coordinator mode postdates
// versioning), no delta/stream reads (each shard commits on its own WAL, so
// there is no fleet-wide epoch to resume from; consume the shards' streams
// directly), and no remine (mining is a per-node operation).
func (s *coordServer) routes() []route {
	return []route{
		{"GET", "/health", false, s.health},
		{"GET", "/rules", false, s.rules},
		{"PUT", "/rules", false, s.putRules},
		{"GET", "/violations", false, s.violations},
		{"GET", "/suspects", false, s.suspects},
		{"GET", "/tuples", false, s.listTuples},
		{"POST", "/tuples", false, s.insert},
		{"POST", "/batch", false, s.batch},
		{"GET", "/tuples/{id}", false, s.tuple},
		{"GET", "/tuples/{id}/violations", false, s.tupleViolations},
		{"PUT", "/tuples/{id}", false, s.update},
		{"DELETE", "/tuples/{id}", false, s.remove},
	}
}

func (s *coordServer) handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.method+" /v1"+rt.pattern, s.obs.instrument(rt.method, rt.pattern, rt.handler))
	}
	mux.Handle("GET /metrics", s.obs.reg.Handler())
	return mux
}

// writeClusterError maps a cluster error onto the wire: an unavailable shard
// is 503 with the "unavailable" code (the partial-failure contract — reads
// fail closed rather than returning silently partial results), a shard's own
// API error passes through with the shard's status and code, anything else
// is 500.
func writeClusterError(w http.ResponseWriter, r *http.Request, err error) {
	var api *cluster.APIError
	switch {
	case errors.Is(err, cluster.ErrUnavailable):
		writeError(w, r, http.StatusServiceUnavailable, codeUnavailable, err)
	case errors.As(err, &api):
		writeError(w, r, api.Status, api.Code, err)
	default:
		writeError(w, r, http.StatusInternalServerError, codeInternal, err)
	}
}

// health aggregates the fleet's health. It always answers 200 — a down shard
// degrades status instead, with the per-shard breakdown saying which and why
// — so orchestration probes can distinguish "coordinator dead" from
// "coordinator up, fleet degraded".
func (s *coordServer) health(w http.ResponseWriter, r *http.Request) {
	h := s.cl.Health(r.Context())
	shards := make([]map[string]any, len(h.Shards))
	for i, st := range h.Shards {
		doc := map[string]any{
			"index":   st.Index,
			"url":     st.URL,
			"healthy": st.Healthy,
		}
		if st.Healthy {
			doc["tuples"] = st.Doc.Tuples
			doc["rules"] = st.Doc.Rules
			doc["dirty"] = st.Doc.Dirty
			doc["epoch"] = st.Doc.Epoch
			doc["rules_version"] = st.Doc.RulesVersion
			doc["next_id"] = st.Doc.NextID
		} else {
			doc["error"] = st.Err
		}
		shards[i] = doc
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        h.Status,
		"mode":          "coordinator",
		"shards":        shards,
		"tuples":        h.Tuples,
		"dirty":         h.Dirty,
		"rules_version": h.RulesVersion,
		"next_id":       h.NextID,
		"partition_key": s.cl.Key(),
	})
}

// rules serves the rule document the fleet agrees on, with the fingerprint
// as the ETag — the same contract as the single node, which is what makes
// If-Match swaps through the coordinator work unchanged.
func (s *coordServer) rules(w http.ResponseWriter, r *http.Request) {
	doc, err := s.cl.Rules(r.Context())
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatch(match, doc.Version) {
		w.Header().Set("ETag", `"`+doc.Version+`"`)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("ETag", `"`+doc.Version+`"`)
	writeJSON(w, http.StatusOK, map[string]any{
		"attributes": doc.Attributes,
		"ruleset":    doc.Ruleset,
		"version":    doc.Version,
	})
}

// putRules runs the coordinated two-phase swap: all shards move to the
// uploaded set or none does (cluster.SwapRules has the protocol). An
// If-Match header additionally requires every shard's current version to
// appear among its listed tags, like the single-node CAS; "*" (match-any)
// leaves the swap unconditional.
func (s *coordServer) putRules(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRulesBody+1))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxRulesBody {
		writeError(w, r, http.StatusRequestEntityTooLarge, codePayloadTooLarge, fmt.Errorf("rule file exceeds %d bytes", maxRulesBody))
		return
	}
	ifMatch, _ := etagList(r.Header.Get("If-Match")) // * = match-any = unconditional
	res, err := s.cl.SwapRules(r.Context(), body, ifMatch)
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"swapped": res.Swapped,
		"version": res.Version,
		"rules":   res.Rules,
		"shards":  res.Shards,
	})
}

// violations serves the merged fleet-wide report: per-rule tuple sets in
// rule order, ascending ids — the same deterministic shape a single node
// serving all the tuples would produce, except that "epoch" is the per-shard
// "epochs" array (each shard commits on its own WAL). limit/cursor page over
// the merged per-rule entries exactly like the single node. ?since= delta
// reads are not served here.
func (s *coordServer) violations(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("since") != "" {
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			errors.New("delta reads (?since=) are not served by the coordinator; read the full report or each shard's /v1/violations/stream"))
		return
	}
	rep, err := s.cl.Violations(r.Context())
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	out := rep.Violations
	if out == nil {
		out = []cluster.RuleTuples{}
	}
	lo, hi, next, err := pageWindow(q, len(out))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	resp := map[string]any{
		"epochs":        rep.Epochs,
		"violations":    out[lo:hi],
		"dirty":         rep.Dirty,
		"rules_checked": rep.RulesChecked,
	}
	if next != "" {
		resp["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *coordServer) suspects(w http.ResponseWriter, r *http.Request) {
	out, err := s.cl.Suspects(r.Context())
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	writeSuspects(w, r, out)
}

func (s *coordServer) listTuples(w http.ResponseWriter, r *http.Request) {
	cursor, limit, err := pageParams(r.URL.Query())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	page, err := s.cl.Tuples(r.Context(), cursor, limit)
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	resp := map[string]any{"tuples": page.Tuples, "total": page.Total}
	if page.Next != "" {
		resp["next_cursor"] = page.Next
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *coordServer) insert(w http.ResponseWriter, r *http.Request) {
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
	res, err := s.cl.Insert(r.Context(), rows)
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ids": res.IDs})
}

func (s *coordServer) batch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("body must carry a non-empty \"ops\" array"))
		return
	}
	res, err := s.cl.Batch(r.Context(), req.Ops)
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	ids := res.IDs
	if ids == nil {
		ids = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": len(req.Ops), "ids": ids})
}

func (s *coordServer) tuple(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	doc, err := s.cl.Get(r.Context(), id)
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": doc.ID, "values": doc.Values})
}

func (s *coordServer) tupleViolations(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	doc, err := s.cl.TupleViolations(r.Context(), id)
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	violated := doc.Violated
	if violated == nil {
		violated = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": doc.ID, "violated": violated})
}

func (s *coordServer) update(w http.ResponseWriter, r *http.Request) {
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
	if err := s.cl.Update(r.Context(), id, req.Values); err != nil {
		writeClusterError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id})
}

func (s *coordServer) remove(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if err := s.cl.Delete(r.Context(), id); err != nil {
		writeClusterError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id})
}

// newCoordinator wires the cluster handle and its telemetry, and retries
// Init until the fleet answers or the deadline passes — shard nodes booting
// alongside the coordinator (the smoke test, docker-compose) need a grace
// window before all of them serve /v1/health.
func newCoordinator(ctx context.Context, cfg config) (*coordServer, error) {
	st, err := newObsStack(cfg, cfg.logw)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Shards:   cfg.shardURLs,
		Key:      cfg.partitionBy,
		Timeout:  cfg.shardTimeout,
		Observer: newCoordObs(st.reg),
	})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.initWait)
	for {
		err = cl.Init(ctx)
		if err == nil {
			break
		}
		// Config-shaped rejections (mixed rule sets, a bad partition key) do
		// not heal by waiting; only unavailability is worth retrying.
		if !errors.Is(err, cluster.ErrUnavailable) || time.Now().After(deadline) {
			return nil, fmt.Errorf("forming the cluster: %w", err)
		}
		st.logger().Info("waiting for shards", "error", err)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
	return &coordServer{cl: cl, obs: st}, nil
}
