// Package serve is the network serving tier: it exposes the full serving
// contract — snapshot reads, Requery refinement, the five application
// workloads, and maintenance ingest — over HTTP/JSON, against any
// lmfao.Maintainer (Session, ShardedSession, or their durable variants).
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
// keeps serving the final published snapshot.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	lmfao "repro"
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
	return &Server{
		db:      cfg.DB,
		m:       cfg.Maintainer,
		queries: cfg.Queries,
		apps:    cfg.Apps,
		adm:     newAdmission(cfg.Admission),
		maxRows: maxRows,
	}, nil
}

// Shedded returns how many reads were served degraded (from the snapshot
// after a failed admission) since the server started.
func (s *Server) Shedded() uint64 { return s.shedded.Load() }

// ServeHTTP routes the serving API. Paths are matched manually (the module
// targets Go 1.21, which predates method patterns in ServeMux).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		s.handleHealth(w, r)
	case path == "/v1/meta":
		s.handleMeta(w, r)
	case path == "/v1/versions":
		s.handleVersions(w, r)
	case path == "/v1/epochs":
		s.handleEpochs(w, r)
	case path == "/v1/stats":
		s.handleStats(w, r)
	case strings.HasPrefix(path, "/v1/results/"):
		s.handleResult(w, r, strings.TrimPrefix(path, "/v1/results/"))
	case path == "/v1/lookup":
		s.handleLookup(w, r)
	case path == "/v1/requery":
		s.handleRequery(w, r)
	case path == "/v1/apply":
		s.handleApply(w, r)
	case strings.HasPrefix(path, "/v1/models/"):
		s.handleModels(w, r, strings.TrimPrefix(path, "/v1/models/"))
	default:
		writeError(w, http.StatusNotFound, "no route for %s", path)
	}
}

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
	if sn, ok := s.snapshot().(*lmfao.ShardedSnapshot); ok {
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
	if st, ok := s.m.(interface{ Stats() lmfao.ShardedStats }); ok {
		resp["maintainer"] = st.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResult dumps one query's materialized view. With ?fresh=1 the view
// is recomputed through the Requerier hook under requery admission; when
// admission fails the endpoint degrades to the snapshot view.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, rest string) {
	idx, err := strconv.Atoi(rest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad query index %q", rest)
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

// handleLookup serves one group's aggregate row: GET with ?query=&key=a,b,c
// or POST with a lookupRequest body. Out-of-range indices are rejected
// with 404 before touching the snapshot, which would only report a miss.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	var req lookupRequest
	switch r.Method {
	case http.MethodGet:
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
		req = lookupRequest{Query: idx, Key: key}
	case http.MethodPost:
		if !decodeBody(w, r, &req, "lookup") {
			return
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "lookup wants GET or POST")
		return
	}
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
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "requery wants POST")
		return
	}
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
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant over requery rate")
		return
	}
	release, ok := s.adm.tryRequery()
	if !ok {
		w.Header().Set("Retry-After", "1")
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
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "apply wants POST")
		return
	}
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
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant over write rate")
		return
	}
	if r.URL.Query().Get("mode") == "async" {
		release, ok := s.adm.tryApply()
		if !ok {
			w.Header().Set("Retry-After", "1")
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
// unavailable, not the request's fault — and anything else is 500.
func (s *Server) writeApplyError(w http.ResponseWriter, err error) {
	if errors.Is(err, lmfao.ErrSessionClosed) {
		writeError(w, http.StatusServiceUnavailable, "maintainer closed: %v", err)
		return
	}
	if dw, ok := s.m.(interface{ Wedged() error }); ok && dw.Wedged() != nil {
		writeError(w, http.StatusServiceUnavailable, "maintainer wedged: %v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "apply: %v", err)
}

// handleModels routes /v1/models/{app}[/fit|/predict].
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request, rest string) {
	parts := strings.SplitN(rest, "/", 2)
	app := parts[0]
	action := ""
	if len(parts) == 2 {
		action = parts[1]
	}
	if s.apps == nil {
		writeError(w, http.StatusNotFound, "no applications registered")
		return
	}
	switch action {
	case "fit":
		s.handleFit(w, r, app)
	case "predict":
		s.handlePredict(w, r, app)
	case "":
		writeJSON(w, http.StatusOK, map[string]any{"apps": s.apps.Names()})
	default:
		writeError(w, http.StatusNotFound, "no model action %q (want fit or predict)", action)
	}
}

// handleFit re-fits one application's model from the latest snapshot.
// Fitting is expensive (matrix solves, tree search with requeries), so it
// passes rate admission; models are cached per epoch vector, and a cache
// hit skips admission entirely — it does no work.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request, app string) {
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "fit wants POST")
		return
	}
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	epochs := epochsOf(sn)
	ekey := epochHeader(epochs)
	if v, hit := s.cache.get(app, ekey); hit {
		writeJSON(w, http.StatusOK, v)
		return
	}
	if !s.adm.allow(tenant(r)) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant over fit rate")
		return
	}
	resp, status, err := s.fit(sn, app, epochs)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	s.cache.put(app, ekey, resp)
	writeJSON(w, http.StatusOK, resp)
}

// fit dispatches to the application entry points over the app's batch
// window. The returned status is only meaningful when err != nil.
func (s *Server) fit(sn lmfao.Queryable, app string, epochs []uint64) (any, int, error) {
	window := func(win Window) (lmfao.Queryable, error) {
		return lmfao.SubQueryable(sn, win.Lo, win.Hi)
	}
	switch app {
	case "linreg":
		if s.apps.LinReg == nil {
			return nil, http.StatusNotFound, fmt.Errorf("linreg not registered")
		}
		q, err := window(s.apps.LinReg.Win)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		m, err := lmfao.LearnLinearRegressionClosedFormFrom(q, s.db, s.apps.LinReg.Spec)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		names := make([]string, len(m.Features))
		for i, f := range m.Features {
			names[i] = f.Name
		}
		return linregModelWire{Features: names, Theta: m.Theta, FinalLoss: m.FinalLoss, Epochs: epochs}, 0, nil
	case "polyreg":
		if s.apps.PolyReg == nil {
			return nil, http.StatusNotFound, fmt.Errorf("polyreg not registered")
		}
		q, err := window(s.apps.PolyReg.Win)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		m, err := lmfao.LearnPolynomialRegressionFrom(q, s.db, s.apps.PolyReg.Spec)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return polyModelWire{Monomials: len(m.Monomials), Theta: m.Theta, Epochs: epochs}, 0, nil
	case "tree":
		if s.apps.Tree == nil {
			return nil, http.StatusNotFound, fmt.Errorf("tree not registered")
		}
		// The tree learner drives the Requerier hook once per tree level;
		// hold one requery slot for the whole fit so tree learning counts
		// against the refinement tier like any other fresh work.
		release, ok := s.adm.tryRequery()
		if !ok {
			return nil, http.StatusTooManyRequests, fmt.Errorf("requery tier saturated; retry later")
		}
		defer release()
		m, err := lmfao.LearnDecisionTreeFrom(sn, s.db, s.apps.Tree.Spec)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return treeModelWire{Nodes: m.Nodes, Depth: treeDepth(m.Root), Epochs: epochs}, 0, nil
	case "chowliu":
		if s.apps.ChowLiu == nil {
			return nil, http.StatusNotFound, fmt.Errorf("chowliu not registered")
		}
		q, err := window(s.apps.ChowLiu.Win)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		mi, edges, err := lmfao.LearnChowLiuTreeFrom(q, s.db, s.apps.ChowLiu.Attrs)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		wireEdges := make([]chowliuEdge, len(edges))
		for i, e := range edges {
			wireEdges[i] = chowliuEdge{I: e.I, J: e.J, Weight: e.Weight}
		}
		return chowliuWire{Attrs: s.db.AttrNames(mi.Attrs), Edges: wireEdges, Epochs: epochs}, 0, nil
	case "cube":
		if s.apps.Cube == nil {
			return nil, http.StatusNotFound, fmt.Errorf("cube not registered")
		}
		q, err := window(s.apps.Cube.Win)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		cr, err := lmfao.ComputeDataCubeFrom(q, s.db, s.apps.Cube.Spec)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		flat := cr.Flatten()
		n := len(flat)
		if s.maxRows > 0 && n > s.maxRows {
			n = s.maxRows
		}
		rows := make([]resultRow, n)
		for i := 0; i < n; i++ {
			rows[i] = resultRow{Key: flat[i].Dims, Values: flat[i].Values}
		}
		return cubeWire{
			Dims:     s.db.AttrNames(s.apps.Cube.Spec.Dims),
			Measures: s.db.AttrNames(s.apps.Cube.Spec.Measures),
			Rows:     len(flat),
			Data:     rows,
			Epochs:   epochs,
		}, 0, nil
	}
	return nil, http.StatusNotFound, fmt.Errorf("unknown application %q", app)
}

// handlePredict evaluates a fitted predictor on one input tuple. The model
// comes from the epoch cache, fitting on miss, so the first predict after a
// maintenance round pays one fit and the rest are pure evaluations.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, app string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "predict wants POST")
		return
	}
	var req predictRequest
	if !decodeBody(w, r, &req, "predict") {
		return
	}
	sn, ok := s.requireSnapshot(w)
	if !ok {
		return
	}
	epochs := epochsOf(sn)
	ekey := epochHeader(epochs)
	cached, hit := s.cache.get(app+"/model", ekey)
	if !hit {
		m, status, err := s.fitPredictor(sn, app)
		if err != nil {
			writeError(w, status, "%v", err)
			return
		}
		s.cache.put(app+"/model", ekey, m)
		cached = m
	}
	flat, err := rowRelation(s.db, req.Row)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var pred float64
	switch m := cached.(type) {
	case *lmfao.LinRegModel:
		pred, err = m.PredictRow(flat, 0)
	case *lmfao.PolyModel:
		pred, err = m.PredictRow(flat, 0)
	case *lmfao.TreeModel:
		pred, err = m.PredictRow(flat, 0)
	default:
		writeError(w, http.StatusNotFound, "application %q has no predictor", app)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "predict: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Prediction: pred, Epochs: epochs})
}

// fitPredictor fits the raw model object (not the wire rendering) for the
// predict path. Only the three predictors are valid here.
func (s *Server) fitPredictor(sn lmfao.Queryable, app string) (any, int, error) {
	switch app {
	case "linreg":
		if s.apps == nil || s.apps.LinReg == nil {
			return nil, http.StatusNotFound, fmt.Errorf("linreg not registered")
		}
		q, err := lmfao.SubQueryable(sn, s.apps.LinReg.Win.Lo, s.apps.LinReg.Win.Hi)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		m, err := lmfao.LearnLinearRegressionClosedFormFrom(q, s.db, s.apps.LinReg.Spec)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return m, 0, nil
	case "polyreg":
		if s.apps == nil || s.apps.PolyReg == nil {
			return nil, http.StatusNotFound, fmt.Errorf("polyreg not registered")
		}
		q, err := lmfao.SubQueryable(sn, s.apps.PolyReg.Win.Lo, s.apps.PolyReg.Win.Hi)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		m, err := lmfao.LearnPolynomialRegressionFrom(q, s.db, s.apps.PolyReg.Spec)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return m, 0, nil
	case "tree":
		if s.apps == nil || s.apps.Tree == nil {
			return nil, http.StatusNotFound, fmt.Errorf("tree not registered")
		}
		release, ok := s.adm.tryRequery()
		if !ok {
			return nil, http.StatusTooManyRequests, fmt.Errorf("requery tier saturated; retry later")
		}
		defer release()
		m, err := lmfao.LearnDecisionTreeFrom(sn, s.db, s.apps.Tree.Spec)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return m, 0, nil
	}
	return nil, http.StatusNotFound, fmt.Errorf("application %q has no predictor", app)
}
