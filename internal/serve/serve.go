// Package serve is the network serving tier: it exposes the full serving
// contract — snapshot reads, Requery refinement, the five application
// workloads, and maintenance ingest — over HTTP/JSON, against any
// lmfao.Maintainer (a Session of any shard count, logged or not).
//
// The design mirrors the layered engine underneath. Reads
// (/v1/results, /v1/lookup, metadata) hit the latest published snapshot —
// lock-free, never blocked by maintenance — and always carry the snapshot's
// publication epochs in the X-Lmfao-Epoch header. Expensive work (ad-hoc
// requeries, ?fresh=1 refinement, model fits, maintenance writes) passes
// admission control: per-tenant token buckets plus two semaphores bounding
// concurrent requeries and the async-apply backlog. Under saturation the
// server sheds load by DEGRADING, not erroring: a fresh read that cannot
// claim a requery slot (or whose tenant is over rate) falls back to the last
// published snapshot with X-Lmfao-Degraded: 1 — a 200 with explicit
// staleness, never a 5xx storm. Only explicitly-fresh work with no snapshot
// fallback (POST /v1/requery, async applies over backlog) gets 429 with
// Retry-After. A closed maintainer yields 503 on writes while every read
// keeps serving the final published snapshot. Each registered application
// has one fitted model per snapshot epoch vector, which /fit renders and
// /predict evaluates.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/query"
)

// Config assembles a Server.
type Config struct {
	// DB is the database the maintainer serves (schema for meta, update
	// decoding and requery parsing).
	DB *lmfao.Database
	// Maintainer is the serving backend; reads go through its Snapshot.
	Maintainer lmfao.Maintainer
	// Queries is the served batch, in batch order (metadata + result
	// naming; must match what Maintainer maintains).
	Queries []*lmfao.Query
	// Apps optionally registers application endpoints over batch windows.
	Apps *Apps
	// Admission tunes admission control (zero value = defaults).
	Admission AdmissionOptions
	// MaxResultRows caps /v1/results row dumps (default 1000, <0 = no cap).
	MaxResultRows int
}

// Server is the HTTP serving tier over one Maintainer. It implements
// http.Handler; mount it on any mux or pass it to http.Server directly.
type Server struct {
	mux     *http.ServeMux
	db      *lmfao.Database
	m       lmfao.Maintainer
	queries []*lmfao.Query
	apps    *Apps
	adm     *admission
	cache   modelCache
	maxRows int

	// shedded counts degraded reads served (observability).
	shedded atomic.Uint64
}

// NewServer validates cfg and builds the serving tier.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DB == nil || cfg.Maintainer == nil {
		return nil, fmt.Errorf("serve: Config needs DB and Maintainer")
	}
	maxRows := cfg.MaxResultRows
	if maxRows == 0 {
		maxRows = 1000
	}
	if maxRows < 0 {
		maxRows = 0
	}
	s := &Server{
		mux:     http.NewServeMux(),
		db:      cfg.DB,
		m:       cfg.Maintainer,
		queries: cfg.Queries,
		apps:    cfg.Apps,
		adm:     newAdmission(cfg.Admission),
		maxRows: maxRows,
	}
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /healthz":                  s.handleHealth,
		"GET /v1/meta":                  s.handleMeta,
		"GET /v1/versions":              s.handleVersions,
		"GET /v1/epochs":                s.handleEpochs,
		"GET /v1/stats":                 s.handleStats,
		"GET /v1/results/{query}":       s.handleResult,
		"GET /v1/lookup":                s.handleLookupQuery,
		"POST /v1/lookup":               s.handleLookupBody,
		"POST /v1/requery":              s.handleRequery,
		"POST /v1/apply":                s.handleApply,
		"GET /v1/models/{app}/fit":      s.handleFit,
		"POST /v1/models/{app}/fit":     s.handleFit,
		"POST /v1/models/{app}/predict": s.handlePredict,
	} {
		s.mux.HandleFunc(pattern, h)
	}
	return s, nil
}

// Shedded returns how many reads were served degraded (from the snapshot
// after a failed admission) since the server started.
func (s *Server) Shedded() uint64 { return s.shedded.Load() }

// ServeHTTP routes the request by method and path. An unknown path is
// 404 and a known path asked with another method 405, with an Allow header
// naming the methods it serves.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// snapshot returns the latest published snapshot, or nil before first Run.
func (s *Server) snapshot() lmfao.Queryable { return s.m.Snapshot() }

// requireSnapshot fetches the snapshot or writes the one 503 the read path
// can produce: the maintainer has never published (nothing to serve at all).
func (s *Server) requireSnapshot(w http.ResponseWriter) (lmfao.Queryable, bool) {
	sn := s.snapshot()
	if sn == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet (run the batch first)")
		return nil, false
	}
	w.Header().Set("X-Lmfao-Epoch", epochHeader(epochsOf(sn)))
	return sn, true
}

// degrade marks the response as shed: served from the last published
// snapshot instead of the fresh path the caller asked for.
func (s *Server) degrade(w http.ResponseWriter, reason string) {
	s.shedded.Add(1)
	w.Header().Set("X-Lmfao-Degraded", "1")
	w.Header().Set("X-Lmfao-Degraded-Reason", reason)
}

// handleHealth reports liveness and the published epochs.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot()
	resp := map[string]any{"ok": true, "published": sn != nil}
	if sn != nil {
		resp["epochs"] = epochsOf(sn)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMeta describes the schema, the served batch and registered apps.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	resp := metaResponse{Apps: s.apps.Names(), Shards: 1}
	if sn, ok := s.snapshot().(*lmfao.Snapshot); ok {
		resp.Shards = sn.NumShards()
	}
	for _, rel := range s.db.Relations() {
		rm := relationMeta{Name: rel.Name, Rows: rel.Len()}
		for _, id := range rel.Attrs {
			a := s.db.Attribute(id)
			rm.Attrs = append(rm.Attrs, attrMeta{Name: a.Name, Kind: kindName(a.Kind)})
		}
		resp.Relations = append(resp.Relations, rm)
	}
	for i, q := range s.queries {
		resp.Queries = append(resp.Queries, queryMeta{
			Index: i, Name: q.Name,
			GroupBy: s.db.AttrNames(q.GroupBy),
			Aggs:    q.NumCols(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleVersions serves the snapshot's base-relation version metadata.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"versions": sn.Versions()})
}

// handleEpochs serves the snapshot's publication epochs.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"epochs": epochsOf(sn)})
}

// handleStats serves maintainer fan-out counters when available, plus the
// serving tier's own shed counter and backlog depth.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"shedded":        s.shedded.Load(),
		"pendingApplies": s.adm.pendingApplies(),
	}
	if sess, ok := s.m.(*lmfao.Session); ok {
		resp["maintainer"] = sess.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResult dumps one query's materialized view. With ?fresh=1 the view
// is recomputed through the Requerier hook under requery admission; when
// admission fails the endpoint degrades to the snapshot view.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.PathValue("query"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad query index %q", r.PathValue("query"))
		return
	}
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	if idx < 0 || idx >= sn.NumQueries() {
		writeError(w, http.StatusNotFound, "query index %d out of range (batch has %d queries)", idx, sn.NumQueries())
		return
	}
	name := ""
	var aggs int
	if idx < len(s.queries) {
		name = s.queries[idx].Name
		aggs = s.queries[idx].NumCols()
	}
	fresh := r.URL.Query().Get("fresh") != ""
	if fresh {
		v, ok := s.freshResult(w, r, sn, idx)
		if ok {
			if aggs == 0 {
				aggs = v.Stride
			}
			writeJSON(w, http.StatusOK, viewToResponse(s.db, idx, name, v, aggs, epochsOf(sn), true, s.maxRows))
			return
		}
		// Admission failed: fall through and serve the snapshot, degraded.
	}
	v := sn.Result(idx)
	if v == nil {
		writeError(w, http.StatusInternalServerError, "query %d has no materialized view", idx)
		return
	}
	if aggs == 0 {
		aggs = v.Stride
	}
	writeJSON(w, http.StatusOK, viewToResponse(s.db, idx, name, v, aggs, epochsOf(sn), false, s.maxRows))
}

// freshResult recomputes query idx through the snapshot's Requerier hook,
// under rate and concurrency admission. ok=false means the caller should
// degrade to the snapshot (headers already set); a hard requery error also
// degrades — the snapshot is the fallback for every fresh-path failure.
func (s *Server) freshResult(w http.ResponseWriter, r *http.Request, sn lmfao.Queryable, idx int) (*lmfao.Result, bool) {
	rq, isRq := sn.(lmfao.Requerier)
	if !isRq || idx >= len(s.queries) {
		s.degrade(w, "no-requerier")
		return nil, false
	}
	if !s.adm.allow(tenant(r)) {
		s.degrade(w, "rate")
		return nil, false
	}
	release, ok := s.adm.tryRequery()
	if !ok {
		s.degrade(w, "requery-saturated")
		return nil, false
	}
	defer release()
	res, err := rq.Requery([]*lmfao.Query{s.queries[idx]})
	if err != nil || len(res) != 1 {
		s.degrade(w, "requery-failed")
		return nil, false
	}
	return res[0], true
}

// handleLookupQuery serves GET /v1/lookup?query=&key=a,b,c.
func (s *Server) handleLookupQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	idx, err := strconv.Atoi(q.Get("query"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ?query=%q", q.Get("query"))
		return
	}
	key, err := parseKeyCSV(q.Get("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ?key: %v", err)
		return
	}
	s.lookup(w, lookupRequest{Query: idx, Key: key})
}

// handleLookupBody serves POST /v1/lookup with a lookupRequest body.
func (s *Server) handleLookupBody(w http.ResponseWriter, r *http.Request) {
	var req lookupRequest
	if decodeBody(w, r, &req, "lookup") {
		s.lookup(w, req)
	}
}

// lookup serves one group's aggregate row. An out-of-range index is
// rejected with 404 before touching the snapshot, which would only report
// a miss.
func (s *Server) lookup(w http.ResponseWriter, req lookupRequest) {
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	if req.Query < 0 || req.Query >= sn.NumQueries() {
		writeError(w, http.StatusNotFound, "query index %d out of range (batch has %d queries)", req.Query, sn.NumQueries())
		return
	}
	vals, found := sn.Lookup(req.Query, req.Key...)
	writeJSON(w, http.StatusOK, lookupResponse{
		Query: req.Query, Key: req.Key, OK: found, Values: vals,
		Epochs: epochsOf(sn),
	})
}

// handleRequery evaluates ad-hoc queries (compact wire syntax) through the
// Requerier hook. Requeries have no snapshot fallback — the caller asked
// for a batch the snapshot does not hold — so saturation is a 429 with
// Retry-After, and rate-limited tenants get 429 too.
func (s *Server) handleRequery(w http.ResponseWriter, r *http.Request) {
	var req requeryRequest
	if !decodeBody(w, r, &req, "requery") {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "requery body has no queries")
		return
	}
	queries := make([]*lmfao.Query, len(req.Queries))
	for i, qs := range req.Queries {
		q, err := query.Parse(s.db, qs)
		if err == nil {
			err = q.Validate(s.db)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		queries[i] = q
	}
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	rq, isRq := sn.(lmfao.Requerier)
	if !isRq {
		writeError(w, http.StatusNotImplemented, "snapshot has no requery hook")
		return
	}
	if !s.adm.allow(tenant(r)) {
		writeError(w, http.StatusTooManyRequests, "tenant over requery rate")
		return
	}
	release, ok := s.adm.tryRequery()
	if !ok {
		writeError(w, http.StatusTooManyRequests, "requery tier saturated (%d in flight)", cap(s.adm.requerySem))
		return
	}
	defer release()
	res, err := rq.Requery(queries)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "requery: %v", err)
		return
	}
	resp := requeryResponse{Results: make([]resultResponse, len(res))}
	for i, v := range res {
		resp.Results[i] = viewToResponse(s.db, i, queries[i].Name, v, queries[i].NumCols(), epochsOf(sn), true, s.maxRows)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleApply ingests one maintenance round. Default is synchronous: the
// response reports the committed round. ?mode=async enqueues through
// ApplyAsync under backlog admission and returns 202; a full backlog is 429
// with Retry-After. A closed maintainer is 503 in both modes.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	var req applyRequest
	if !decodeBody(w, r, &req, "apply") {
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, "apply body has no updates")
		return
	}
	updates, err := decodeUpdates(s.db, req.Updates)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.adm.allow(tenant(r)) {
		writeError(w, http.StatusTooManyRequests, "tenant over write rate")
		return
	}
	if r.URL.Query().Get("mode") == "async" {
		release, ok := s.adm.tryApply()
		if !ok {
			writeError(w, http.StatusTooManyRequests, "apply backlog full (%d pending)", s.adm.pendingApplies())
			return
		}
		ch := s.m.ApplyAsync(updates...)
		go func() {
			defer release()
			<-ch
		}()
		writeJSON(w, http.StatusAccepted, applyAsyncResponse{Accepted: true, Pending: s.adm.pendingApplies()})
		return
	}
	stats, err := s.m.Apply(updates...)
	if err != nil {
		s.writeApplyError(w, err)
		return
	}
	incremental := len(stats) > 0
	for _, st := range stats {
		if st != nil && !st.Incremental {
			incremental = false
		}
	}
	resp := applyResponse{Applied: len(updates), Incremental: incremental}
	if sn := s.snapshot(); sn != nil {
		resp.Epochs = epochsOf(sn)
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeApplyError maps a maintenance error onto HTTP: a closed (or wedged
// durable) maintainer is 503 — the backend is permanently or persistently
// unavailable, not the request's fault — a delete of a tuple the relation
// does not hold is 409, and anything else is 500.
func (s *Server) writeApplyError(w http.ResponseWriter, err error) {
	if errors.Is(err, lmfao.ErrSessionClosed) {
		writeError(w, http.StatusServiceUnavailable, "maintainer closed: %v", err)
		return
	}
	if sess, ok := s.m.(*lmfao.Session); ok && sess.Wedged() != nil {
		writeError(w, http.StatusServiceUnavailable, "maintainer wedged: %v", err)
		return
	}
	if errors.Is(err, data.ErrUnmatchedDelete) {
		writeError(w, http.StatusConflict, "apply: %v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "apply: %v", err)
}

// handleFit renders app's model at the latest snapshot, fitting it on a
// cache miss (see model).
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	l, ok := s.apps.learner(app)
	if !ok {
		writeError(w, http.StatusNotFound, "no application %q", app)
		return
	}
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	m, cached, ok := s.model(w, r, sn, app, l)
	if ok {
		writeJSON(w, http.StatusOK, renderModel(s.db, m, fitMeta{epochsOf(sn), cached}, s.maxRows))
	}
}

// handlePredict evaluates app's model at the latest snapshot on one input
// tuple, fitting it on a cache miss (see model). An application without a
// predictor is 404 before the body is read, a fit runs or a token is taken.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	l, ok := s.apps.learner(app)
	if !ok || !l.predicts {
		writeError(w, http.StatusNotFound, "application %q has no predictor", app)
		return
	}
	var req predictRequest
	if !decodeBody(w, r, &req, "predict") {
		return
	}
	flat, err := rowRelation(s.db, req.Row)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	m, _, ok := s.model(w, r, sn, app, l)
	if !ok {
		return
	}
	pred, err := m.(predictor).PredictRow(flat, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "predict: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Prediction: pred, Epochs: epochsOf(sn)})
}

// model returns app's model fitted at sn's epochs and whether it came from
// the cache, which holds one model per application. A miss fits under the
// admission every fit pays: the tenant's token, plus a requery slot for a
// learner that requeries (the tree drives Requery once per level), so a
// fit is refused with 429 the same way from /fit and /predict. ok=false
// means the error response has been written.
func (s *Server) model(w http.ResponseWriter, r *http.Request, sn lmfao.Queryable, app string, l learner) (m any, cached, ok bool) {
	epochs := epochHeader(epochsOf(sn))
	if m, hit := s.cache.get(app, epochs); hit {
		return m, true, true
	}
	if !s.adm.allow(tenant(r)) {
		writeError(w, http.StatusTooManyRequests, "tenant over fit rate")
		return nil, false, false
	}
	q := sn
	if l.win == nil {
		release, ok := s.adm.tryRequery()
		if !ok {
			writeError(w, http.StatusTooManyRequests, "requery tier saturated; retry later")
			return nil, false, false
		}
		defer release()
	} else {
		var err error
		if q, err = lmfao.SubQueryable(sn, l.win.Lo, l.win.Hi); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return nil, false, false
		}
	}
	m, err := l.fit(q, s.db)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, false, false
	}
	s.cache.put(app, epochs, m)
	return m, false, true
}
