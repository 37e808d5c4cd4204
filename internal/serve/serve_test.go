package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	lmfao "repro"
)

// testBatch builds a two-relation database and a two-query batch: a scalar
// total and a per-store group-by.
func testBatch(t *testing.T) (*lmfao.Database, []*lmfao.Query) {
	t.Helper()
	db := lmfao.NewDatabase()
	store := db.Attr("store", lmfao.Key)
	amount := db.Attr("amount", lmfao.Numeric)
	region := db.Attr("region", lmfao.Categorical)
	if err := db.AddRelation(lmfao.NewRelation("sales",
		[]lmfao.AttrID{store, amount},
		[]lmfao.Column{lmfao.IntColumn([]int64{0, 1, 1, 2}), lmfao.FloatColumn([]float64{1, 2, 3, 4})})); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(lmfao.NewRelation("stores",
		[]lmfao.AttrID{store, region},
		[]lmfao.Column{lmfao.IntColumn([]int64{0, 1, 2}), lmfao.IntColumn([]int64{10, 10, 20})})); err != nil {
		t.Fatal(err)
	}
	return db, []*lmfao.Query{
		lmfao.NewQuery("total", nil, lmfao.Sum(amount), lmfao.Count()),
		lmfao.NewQuery("by_store", []lmfao.AttrID{store}, lmfao.Sum(amount)),
	}
}

// newTestServer builds a Server over a fresh running Session.
func newTestServer(t *testing.T, adm AdmissionOptions) (*Server, *lmfao.Session) {
	t.Helper()
	db, queries := testBatch(t)
	sess, err := lmfao.NewSession(db, queries, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{DB: db, Maintainer: sess, Queries: queries, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	return srv, sess
}

// checkNoLeaks fails t if, once its server and session are closed, a
// goroutine with a frame of this package or of the root package still runs.
// It registers its check as t's first cleanup, so the check runs after
// every later cleanup (session closes) and after t's subtests; it waits up
// to two seconds for goroutines that are already on their way out. The
// tests of this package do not run in parallel, so every goroutine found is
// t's own. Call it first.
func checkNoLeaks(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		leaked := leakedGoroutines()
		for deadline := time.Now().Add(2 * time.Second); len(leaked) > 0 && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			leaked = leakedGoroutines()
		}
		if len(leaked) > 0 {
			t.Errorf("%d goroutines still run after the server and session closed:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// leakedGoroutines returns the stacks of the goroutines, other than the
// caller's, that have a frame of this package or of the root package, or
// were started from one.
func leakedGoroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // [0] is the caller
		for _, line := range strings.Split(g, "\n") {
			fn := strings.TrimPrefix(line, "created by ")
			if strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "repro/internal/serve.") {
				leaked = append(leaked, g)
				break
			}
		}
	}
	return leaked
}

// do runs one request through the server.
func do(srv *Server, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
}

func TestServeReadEndpoints(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{})
	for _, target := range []string{"/healthz", "/v1/meta", "/v1/epochs", "/v1/versions", "/v1/stats", "/v1/results/0", "/v1/results/1", "/v1/lookup?query=0&key="} {
		w := do(srv, http.MethodGet, target, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", target, w.Code, w.Body)
		}
	}
	w := do(srv, http.MethodGet, "/v1/lookup?query=1&key=1", "", nil)
	var resp lookupResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Values) != 1 || resp.Values[0] != 5 {
		t.Fatalf("lookup by_store(1) = %+v, want values [5]", resp)
	}
	if got := w.Header().Get("X-Lmfao-Epoch"); got != "1" {
		t.Fatalf("X-Lmfao-Epoch = %q, want 1", got)
	}
}

// TestServeBeforeFirstRun pins the one 503 the read path can produce: the
// maintainer has never published a snapshot.
func TestServeBeforeFirstRun(t *testing.T) {
	checkNoLeaks(t)
	db, queries := testBatch(t)
	sess, err := lmfao.NewSession(db, queries, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	srv, err := NewServer(Config{DB: db, Maintainer: sess, Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/v1/epochs", "/v1/versions", "/v1/results/0", "/v1/lookup?query=0&key="} {
		if w := do(srv, http.MethodGet, target, "", nil); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s before Run = %d, want 503", target, w.Code)
		}
	}
	// healthz stays 200 — the process is alive, just not publishing yet.
	if w := do(srv, http.MethodGet, "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz before Run = %d, want 200", w.Code)
	}
}

// TestServeOutOfRangeIndices pins that bad query indices are rejected with
// 404 before they can reach Snapshot.Lookup/Result (which would answer
// only a miss or a nil view).
func TestServeOutOfRangeIndices(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{})
	for _, target := range []string{
		"/v1/results/99", "/v1/results/-1",
		"/v1/lookup?query=99&key=", "/v1/lookup?query=-1&key=1",
	} {
		if w := do(srv, http.MethodGet, target, "", nil); w.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", target, w.Code)
		}
	}
	if w := do(srv, http.MethodGet, "/v1/results/nonsense", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric index = %d, want 400", w.Code)
	}
	if w := do(srv, http.MethodPost, "/v1/lookup", `{"query": 99}`, nil); w.Code != http.StatusNotFound {
		t.Fatalf("POST lookup out of range = %d, want 404", w.Code)
	}
}

func TestServeApplySync(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{})
	w := do(srv, http.MethodPost, "/v1/apply", `{"updates":[{"relation":"sales","inserts":[[2,10]]}]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("apply = %d: %s", w.Code, w.Body)
	}
	var resp applyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Epochs) != 1 || resp.Epochs[0] != 2 {
		t.Fatalf("epochs after apply = %v, want [2]", resp.Epochs)
	}
	lw := do(srv, http.MethodGet, "/v1/lookup?query=1&key=2", "", nil)
	var lresp lookupResponse
	if err := json.Unmarshal(lw.Body.Bytes(), &lresp); err != nil {
		t.Fatal(err)
	}
	if !lresp.OK || lresp.Values[0] != 14 {
		t.Fatalf("by_store(2) after insert = %+v, want [14]", lresp)
	}

	// Malformed rounds are 400s: bad JSON, no updates, unknown relation,
	// wrong arity.
	for body, why := range map[string]string{
		`{nonsense`:      "bad JSON",
		`{"updates":[]}`: "no updates",
		`{"updates":[{"relation":"nope","inserts":[[1,1]]}]}`:    "unknown relation",
		`{"updates":[{"relation":"sales","inserts":[[1]]}]}`:     "wrong arity",
		`{"updates":[{"relation":"sales","deletes":[[1,2,3]]}]}`: "wrong arity deletes",
	} {
		if w := do(srv, http.MethodPost, "/v1/apply", body, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("apply %s = %d, want 400", why, w.Code)
		}
	}
}

// TestServeClosedMaintainer pins the degradation contract after Close:
// writes are 503 (the sentinel maps to service-unavailable, not a 5xx
// crash) while every read — snapshot reads AND requeries, which evaluate
// against the final committed base data — keeps serving with the last
// published epoch.
func TestServeClosedMaintainer(t *testing.T) {
	checkNoLeaks(t)
	srv, sess := newTestServer(t, AdmissionOptions{})
	sess.Close()
	w := do(srv, http.MethodPost, "/v1/apply", `{"updates":[{"relation":"sales","inserts":[[2,10]]}]}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("apply after Close = %d, want 503: %s", w.Code, w.Body)
	}
	if rw := do(srv, http.MethodPost, "/v1/requery", `{"queries":["adhoc(SUM 1)"]}`, nil); rw.Code != http.StatusOK {
		t.Fatalf("requery after Close = %d, want 200 (reads the final state): %s", rw.Code, rw.Body)
	}
	for _, target := range []string{"/v1/epochs", "/v1/results/0", "/v1/lookup?query=0&key="} {
		w := do(srv, http.MethodGet, target, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s after Close = %d, want 200 (snapshots stay readable)", target, w.Code)
		}
		if got := w.Header().Get("X-Lmfao-Epoch"); got != "1" {
			t.Fatalf("GET %s after Close: X-Lmfao-Epoch = %q, want 1", target, got)
		}
	}
}

// TestServeWedgedDurable pins the wedged-backend path: a WAL write failure
// wedges the durable session; the serve tier maps every later write to 503
// while reads keep serving the last published snapshot.
func TestServeWedgedDurable(t *testing.T) {
	checkNoLeaks(t)
	db, queries := testBatch(t)
	d, err := lmfao.NewDurableSession(db, queries, lmfao.DefaultOptions(), lmfao.DurableOptions{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{DB: db, Maintainer: d, Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	d.CrashAfterAppends(0)
	body := `{"updates":[{"relation":"sales","inserts":[[2,10]]}]}`
	if w := do(srv, http.MethodPost, "/v1/apply", body, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("apply into armed crash = %d, want 503: %s", w.Code, w.Body)
	}
	if d.Wedged() == nil {
		t.Fatal("session not wedged after injected WAL crash")
	}
	// The wedge is sticky: every later write is 503, never a 500 storm.
	if w := do(srv, http.MethodPost, "/v1/apply", body, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("apply after wedge = %d, want 503: %s", w.Code, w.Body)
	}
	if w := do(srv, http.MethodGet, "/v1/lookup?query=0&key=", "", nil); w.Code != http.StatusOK {
		t.Fatalf("read after wedge = %d, want 200", w.Code)
	}
}

// TestServeShedFreshRead pins the load-shedding contract: when the requery
// tier is saturated, a ?fresh=1 read is NOT refused — it degrades to the
// last published snapshot, 200, with the staleness headers set.
func TestServeShedFreshRead(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{MaxRequeries: 1})

	// A fresh read with a free slot really refreshes.
	w := do(srv, http.MethodGet, "/v1/results/0?fresh=1", "", nil)
	if w.Code != http.StatusOK || w.Header().Get("X-Lmfao-Degraded") != "" {
		t.Fatalf("unsaturated fresh read: code %d degraded %q", w.Code, w.Header().Get("X-Lmfao-Degraded"))
	}

	// Saturate the refinement tier by holding its only slot.
	release, ok := srv.adm.tryRequery()
	if !ok {
		t.Fatal("could not take the requery slot")
	}
	defer release()

	w = do(srv, http.MethodGet, "/v1/results/0?fresh=1", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("shed fresh read = %d, want 200 (degrade, don't error): %s", w.Code, w.Body)
	}
	if w.Header().Get("X-Lmfao-Degraded") != "1" {
		t.Fatal("shed fresh read missing X-Lmfao-Degraded header")
	}
	if got := w.Header().Get("X-Lmfao-Epoch"); got != "1" {
		t.Fatalf("shed fresh read X-Lmfao-Epoch = %q, want last published epoch 1", got)
	}
	var resp resultResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fresh {
		t.Fatal("shed read claims fresh=true")
	}
	if srv.Shedded() == 0 {
		t.Fatal("shed counter not incremented")
	}

	// An explicit requery has no snapshot fallback: saturation is 429 with
	// Retry-After, not a silent degrade.
	rw := do(srv, http.MethodPost, "/v1/requery", `{"queries":["adhoc(SUM 1)"]}`, nil)
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated requery = %d, want 429: %s", rw.Code, rw.Body)
	}
	if rw.Header().Get("Retry-After") == "" {
		t.Fatal("saturated requery missing Retry-After")
	}
}

// TestServeTenantRateLimit pins per-tenant token buckets: an over-rate
// tenant's explicit requeries get 429 while its fresh reads degrade to the
// snapshot, and other tenants are unaffected.
func TestServeTenantRateLimit(t *testing.T) {
	checkNoLeaks(t)
	clock := time.Unix(1e9, 0)
	srv, _ := newTestServer(t, AdmissionOptions{
		TenantRate:  0.001, // effectively no refill within the test
		TenantBurst: 1,
		now:         func() time.Time { return clock },
	})
	alice := map[string]string{"X-Lmfao-Tenant": "alice"}
	bob := map[string]string{"X-Lmfao-Tenant": "bob"}

	if w := do(srv, http.MethodPost, "/v1/requery", `{"queries":["adhoc(SUM 1)"]}`, alice); w.Code != http.StatusOK {
		t.Fatalf("first requery = %d, want 200: %s", w.Code, w.Body)
	}
	if w := do(srv, http.MethodPost, "/v1/requery", `{"queries":["adhoc(SUM 1)"]}`, alice); w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate requery = %d, want 429", w.Code)
	}
	// Fresh reads degrade instead of erroring for the throttled tenant.
	w := do(srv, http.MethodGet, "/v1/results/0?fresh=1", "", alice)
	if w.Code != http.StatusOK || w.Header().Get("X-Lmfao-Degraded") != "1" {
		t.Fatalf("throttled fresh read: code %d degraded %q, want 200 + degraded", w.Code, w.Header().Get("X-Lmfao-Degraded"))
	}
	// Another tenant still has its full burst.
	if w := do(srv, http.MethodPost, "/v1/requery", `{"queries":["adhoc(SUM 1)"]}`, bob); w.Code != http.StatusOK {
		t.Fatalf("other tenant requery = %d, want 200: %s", w.Code, w.Body)
	}
	// Plain snapshot reads are never rate limited.
	for i := 0; i < 10; i++ {
		if w := do(srv, http.MethodGet, "/v1/lookup?query=0&key=", "", alice); w.Code != http.StatusOK {
			t.Fatalf("plain read %d rate-limited: %d", i, w.Code)
		}
	}
}

// stubMaintainer is a Maintainer whose async applies block until released,
// for deterministic backpressure tests.
type stubMaintainer struct {
	snap  lmfao.Queryable
	block chan struct{}
}

func (m *stubMaintainer) Run() (lmfao.Queryable, error)                      { return m.snap, nil }
func (m *stubMaintainer) Apply(...lmfao.Update) ([]*lmfao.ApplyStats, error) { return nil, nil }
func (m *stubMaintainer) ApplyAsync(...lmfao.Update) <-chan lmfao.ApplyResult {
	ch := make(chan lmfao.ApplyResult, 1)
	go func() {
		<-m.block
		ch <- lmfao.ApplyResult{}
	}()
	return ch
}
func (m *stubMaintainer) Snapshot() lmfao.Queryable { return m.snap }
func (m *stubMaintainer) Wait()                     {}
func (m *stubMaintainer) Close()                    {}

// TestServeAsyncApplyBackpressure pins the bounded async backlog: accepted
// rounds are 202, a full backlog is 429 with Retry-After, and slots free up
// when rounds commit.
func TestServeAsyncApplyBackpressure(t *testing.T) {
	checkNoLeaks(t)
	db, queries := testBatch(t)
	sess, err := lmfao.NewSession(db, queries, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	stub := &stubMaintainer{snap: sess.Snapshot(), block: make(chan struct{})}
	srv, err := NewServer(Config{DB: db, Maintainer: stub, Queries: queries,
		Admission: AdmissionOptions{MaxPendingApplies: 1}})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"updates":[{"relation":"sales","inserts":[[2,10]]}]}`
	if w := do(srv, http.MethodPost, "/v1/apply?mode=async", body, nil); w.Code != http.StatusAccepted {
		t.Fatalf("first async apply = %d, want 202: %s", w.Code, w.Body)
	}
	if w := do(srv, http.MethodPost, "/v1/apply?mode=async", body, nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("async apply over backlog = %d, want 429: %s", w.Code, w.Body)
	}
	close(stub.block) // commit the in-flight round
	deadline := time.Now().Add(2 * time.Second)
	for srv.adm.pendingApplies() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("backlog never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if w := do(srv, http.MethodPost, "/v1/apply?mode=async", body, nil); w.Code != http.StatusAccepted {
		t.Fatalf("async apply after drain = %d, want 202: %s", w.Code, w.Body)
	}
}

// TestServeRequeryEndpoint pins the ad-hoc requery path: parsed wire
// queries evaluate behind the snapshot, and bad syntax or a query that
// does not validate (a numeric group-by) is a 400.
func TestServeRequeryEndpoint(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{})
	w := do(srv, http.MethodPost, "/v1/requery", `{"queries":["by_region(region; SUM amount)"]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("requery = %d: %s", w.Code, w.Body)
	}
	var resp requeryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Rows != 2 {
		t.Fatalf("by_region rows = %+v, want 2 groups", resp.Results)
	}
	if w := do(srv, http.MethodPost, "/v1/requery", `{"queries":["nonsense"]}`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("unparsable requery = %d, want 400", w.Code)
	}
	if w := do(srv, http.MethodPost, "/v1/requery", `{"queries":["bad(amount; SUM 1)"]}`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("requery grouped by a numeric attribute = %d, want 400: %s", w.Code, w.Body)
	}
	if w := do(srv, http.MethodPost, "/v1/requery", `{"queries":[]}`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("empty requery = %d, want 400", w.Code)
	}
}

// TestServeBodyLimit pins the outcome of a bad body on every endpoint that
// decodes one: over maxBodyBytes is 413, malformed JSON is 400.
func TestServeBodyLimit(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{})
	srv.apps = &Apps{LinReg: &LinRegApp{}} // registers the predict route's application
	oversized := `{"updates":[` + strings.Repeat(" ", maxBodyBytes) + `]}`
	for _, target := range []string{"/v1/lookup", "/v1/requery", "/v1/apply", "/v1/models/linreg/predict"} {
		if w := do(srv, http.MethodPost, target, oversized, nil); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with an oversized body = %d, want 413: %s", target, w.Code, w.Body)
		}
		if w := do(srv, http.MethodPost, target, `{"updates":`, nil); w.Code != http.StatusBadRequest {
			t.Errorf("POST %s with a malformed body = %d, want 400: %s", target, w.Code, w.Body)
		}
	}
}

// timedOutBody yields a few bytes of JSON and then the error a connection
// read past its deadline returns.
type timedOutBody struct{ sent bool }

var errBodyTimeout = fmt.Errorf("read tcp 127.0.0.1:8080->127.0.0.1:53412: %w", os.ErrDeadlineExceeded)

func (b *timedOutBody) Read(p []byte) (int, error) {
	if b.sent {
		return 0, errBodyTimeout
	}
	b.sent = true
	return copy(p, `{"updates":[`), nil
}

// TestServeBodyReadTimeout: a body the read deadline cuts off is answered
// with 408 and a fixed message that does not carry the transport error.
func TestServeBodyReadTimeout(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{})
	srv.apps = &Apps{LinReg: &LinRegApp{}}
	for _, target := range []string{"/v1/lookup", "/v1/requery", "/v1/apply", "/v1/models/linreg/predict"} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, &timedOutBody{}))
		if w.Code != http.StatusRequestTimeout {
			t.Errorf("POST %s with a timed-out body = %d, want 408: %s", target, w.Code, w.Body)
		}
		if body := w.Body.String(); strings.Contains(body, errBodyTimeout.Error()) || strings.Contains(body, "127.0.0.1") {
			t.Errorf("POST %s: the response echoes the transport error: %s", target, body)
		}
	}
}

// newAppServer builds a Server whose batch also serves linreg (amount by
// region) and chowliu (store, region) over a fresh running Session.
func newAppServer(t *testing.T, adm AdmissionOptions) (*Server, *lmfao.Session) {
	t.Helper()
	db, queries := testBatch(t)
	store, _ := db.AttrByName("store")
	amount, _ := db.AttrByName("amount")
	region, _ := db.AttrByName("region")
	spec := lmfao.LinRegSpec{Categorical: []lmfao.AttrID{region}, Label: amount, Lambda: 1e-3}
	mi := []lmfao.AttrID{store, region}
	apps := &Apps{LinReg: &LinRegApp{Spec: spec}, ChowLiu: &ChowLiuApp{Attrs: mi}}
	apps.LinReg.Win = Window{Lo: len(queries)}
	queries = append(queries, lmfao.CovarBatch(spec)...)
	apps.LinReg.Win.Hi = len(queries)
	apps.ChowLiu.Win = Window{Lo: len(queries)}
	queries = append(queries, lmfao.MIBatch(mi)...)
	apps.ChowLiu.Win.Hi = len(queries)
	sess, err := lmfao.NewSession(db, queries, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{DB: db, Maintainer: sess, Queries: queries, Apps: apps, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	return srv, sess
}

// fitCached fits app through /fit and returns the response's cached flag.
func fitCached(t *testing.T, srv *Server, app string) bool {
	t.Helper()
	w := do(srv, http.MethodPost, "/v1/models/"+app+"/fit", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("fit %s = %d: %s", app, w.Code, w.Body)
	}
	var resp struct{ Cached bool }
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Cached
}

// TestServeOneModelPerEpoch: /fit and /predict share one fitted model per
// epoch vector, and a maintenance round invalidates it.
func TestServeOneModelPerEpoch(t *testing.T) {
	checkNoLeaks(t)
	srv, sess := newAppServer(t, AdmissionOptions{})
	if w := do(srv, http.MethodPost, "/v1/models/linreg/predict", `{"row":{"region":10}}`, nil); w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	if !fitCached(t, srv, "linreg") {
		t.Fatal("fit after predict at the same epoch re-fitted the model")
	}
	if _, err := sess.Apply(lmfao.Update{Relation: "sales", Inserts: []lmfao.Column{
		lmfao.IntColumn([]int64{2}), lmfao.FloatColumn([]float64{10})}}); err != nil {
		t.Fatal(err)
	}
	if fitCached(t, srv, "linreg") {
		t.Fatal("fit after an apply reported the previous epoch's model as cached")
	}
	if first, second := fitCached(t, srv, "chowliu"), fitCached(t, srv, "chowliu"); first || !second {
		t.Fatalf("chowliu fits at one epoch: cached %v then %v, want false then true", first, second)
	}
}

// TestServeLinRegFitReportsConvergence: a linreg /fit response says
// whether the fit reached the optimum, so a client can tell a fit capped at
// the solver's iteration limit from a converged one.
func TestServeLinRegFitReportsConvergence(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newAppServer(t, AdmissionOptions{})
	w := do(srv, http.MethodPost, "/v1/models/linreg/fit", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("fit = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Converged *bool `json:"converged"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Converged == nil || !*resp.Converged {
		t.Fatalf("fit response lacks converged=true: %s", w.Body)
	}
	capped, err := json.Marshal(renderModel(nil, &lmfao.LinRegModel{Theta: []float64{1}}, fitMeta{}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(capped), `"converged":false`) {
		t.Fatalf("a capped model renders as %s", capped)
	}
}

// TestServeFitAdmission: a model fit pays the tenant's token from /fit and
// /predict alike, and a predict on an application without a predictor is
// 404 before it fits or takes a token.
func TestServeFitAdmission(t *testing.T) {
	checkNoLeaks(t)
	clock := time.Unix(1e9, 0)
	srv, sess := newAppServer(t, AdmissionOptions{
		TenantRate:  0.001,
		TenantBurst: 1,
		now:         func() time.Time { return clock },
	})
	for _, app := range []string{"chowliu", "nosuch"} {
		if w := do(srv, http.MethodPost, "/v1/models/"+app+"/predict", `{"row":{"region":10}}`, nil); w.Code != http.StatusNotFound {
			t.Fatalf("predict %s = %d, want 404: %s", app, w.Code, w.Body)
		}
	}
	if fitCached(t, srv, "linreg") {
		t.Fatal("first fit reported cached")
	}
	if _, err := sess.Apply(lmfao.Update{Relation: "sales", Inserts: []lmfao.Column{
		lmfao.IntColumn([]int64{2}), lmfao.FloatColumn([]float64{10})}}); err != nil {
		t.Fatal(err)
	}
	w := do(srv, http.MethodPost, "/v1/models/linreg/predict", `{"row":{"region":10}}`, nil)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("predict that must re-fit over rate = %d (Retry-After %q), want 429 with Retry-After: %s",
			w.Code, w.Header().Get("Retry-After"), w.Body)
	}
}

// TestServeMethodNotAllowed: a known path asked with another method is 405
// with an Allow header naming the methods it serves.
func TestServeMethodNotAllowed(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newTestServer(t, AdmissionOptions{})
	w := do(srv, http.MethodDelete, "/v1/apply", "", nil)
	if w.Code != http.StatusMethodNotAllowed || !strings.Contains(w.Header().Get("Allow"), http.MethodPost) {
		t.Fatalf("DELETE /v1/apply = %d, Allow %q; want 405 allowing POST", w.Code, w.Header().Get("Allow"))
	}
	if w := do(srv, http.MethodGet, "/v1/nosuch", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/nosuch = %d, want 404", w.Code)
	}
}

// TestServeUnmatchedDelete: deleting a tuple the relation does not hold is
// 409 and leaves the snapshot where it was, on a plain and a sharded
// session.
func TestServeUnmatchedDelete(t *testing.T) {
	checkNoLeaks(t)
	db, queries := testBatch(t)
	sharded, err := lmfao.NewShardedSession(db, queries, lmfao.DefaultOptions(), lmfao.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sharded.Close)
	if _, err := sharded.Run(); err != nil {
		t.Fatal(err)
	}
	plain, _ := newTestServer(t, AdmissionOptions{})
	shardedSrv, err := NewServer(Config{DB: db, Maintainer: sharded, Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*Server{"session": plain, "sharded": shardedSrv} {
		t.Run(name, func(t *testing.T) {
			w := do(srv, http.MethodPost, "/v1/apply", `{"updates":[{"relation":"sales","deletes":[[7,99]]}]}`, nil)
			if w.Code != http.StatusConflict {
				t.Fatalf("unmatched delete = %d, want 409: %s", w.Code, w.Body)
			}
			if e := do(srv, http.MethodGet, "/v1/epochs", "", nil).Header().Get("X-Lmfao-Epoch"); strings.Trim(e, "1,") != "" {
				t.Fatalf("epochs after a refused delete = %q, want all 1", e)
			}
		})
	}
}

// TestServeDiscreteWireValues: a key or categorical wire value that is not
// an int64 is refused with 400, not truncated.
func TestServeDiscreteWireValues(t *testing.T) {
	checkNoLeaks(t)
	srv, _ := newAppServer(t, AdmissionOptions{})
	for _, rows := range []string{`[[1.5,1]]`, `[[1e20,2]]`, `[[-1e19,2]]`, `[[9223372036854775808,2]]`} {
		body := `{"updates":[{"relation":"sales","inserts":` + rows + `}]}`
		if w := do(srv, http.MethodPost, "/v1/apply", body, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("apply %s = %d, want 400: %s", rows, w.Code, w.Body)
		}
	}
	if w := do(srv, http.MethodPost, "/v1/apply", `{"updates":[{"relation":"sales","inserts":[[-9223372036854775808,2.5]]}]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("apply of the least int64 key = %d, want 200: %s", w.Code, w.Body)
	}
	if w := do(srv, http.MethodPost, "/v1/models/linreg/predict", `{"row":{"region":1.5}}`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("predict with a fractional region = %d, want 400: %s", w.Code, w.Body)
	}
}
