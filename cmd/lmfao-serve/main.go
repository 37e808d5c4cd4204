// Command lmfao-serve runs the network serving tier: an HTTP/JSON server
// exposing the full serving contract — snapshot reads, ad-hoc requeries,
// the five application workloads, and maintenance ingest with admission
// control — over one session of -shards shards, WAL-backed under -durable
// when it is set.
//
//	lmfao-serve -dataset retailer -scale 0.01 -shards 4
//	lmfao-serve -dataset retailer -durable /var/lib/lmfao   # WAL-backed
//
// The served batch is the concatenation of the registered applications'
// batches (covar ∪ polynomial ∪ MI ∪ cube); each application reads its
// window via the carving API, so one maintenance round keeps every model's
// aggregates fresh. See ARCHITECTURE.md, "Serving tier".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	lmfao "repro"
	"repro/internal/datagen"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Server timeouts, fixed: a client has readHeaderTimeout to send its
// headers and readTimeout for the whole request, body included, so a
// stalled or trickling client cannot hold a connection (and its goroutine)
// forever; idleTimeout closes kept-alive connections that send nothing.
// The largest body the server accepts is 8 MiB (internal/serve's cap);
// on loopback it arrives in tens of milliseconds, so 10 s leaves a margin
// of two orders of magnitude, and a remote client needs about 7 Mbit/s to
// send it. There is no WriteTimeout: it would also bound the handler, and
// a requery or model fit may legitimately run longer.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8347", "listen address")
		dataset = flag.String("dataset", "retailer", "dataset: retailer, favorita, yelp, tpcds")
		scale   = flag.Float64("scale", 0.01, "dataset scale factor")
		seed    = flag.Int64("seed", 2019, "dataset generator seed")
		threads = flag.Int("threads", 0, "engine threads (0 = engine default)")
		shards  = flag.Int("shards", 1, "shard count; a recovered -durable directory must hold as many")
		durable = flag.String("durable", "", "WAL directory; non-empty logs every shard there (recovers existing state)")
		rate    = flag.Float64("tenant-rate", 0, "per-tenant expensive-request rate limit, req/s (0 = unlimited)")
		burst   = flag.Int("tenant-burst", 8, "per-tenant token-bucket burst")
		maxRq   = flag.Int("max-requeries", 2, "max concurrent requeries/refinements")
		maxPend = flag.Int("max-pending-applies", 16, "max in-flight async maintenance rounds")
		maxRows = flag.Int("max-result-rows", 1000, "row cap on result dumps (-1 = unlimited)")
	)
	flag.Parse()
	if err := run(*addr, *dataset, *scale, *seed, *threads, *shards, *durable,
		serve.AdmissionOptions{TenantRate: *rate, TenantBurst: *burst, MaxRequeries: *maxRq, MaxPendingApplies: *maxPend},
		*maxRows); err != nil {
		fmt.Fprintln(os.Stderr, "lmfao-serve:", err)
		os.Exit(1)
	}
}

func run(addr, dataset string, scale float64, seed int64, threads, shards int, durableDir string, adm serve.AdmissionOptions, maxRows int) error {
	build, err := datagen.ByName(dataset)
	if err != nil {
		return err
	}
	log.Printf("generating %s (scale %g, seed %d)", dataset, scale, seed)
	ds, err := build(datagen.Config{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}

	opts := lmfao.DefaultOptions()
	if threads > 0 {
		opts.Threads = threads
	}

	queries, apps := combinedBatch(ds)
	m, kind, err := newMaintainer(ds.DB, queries, opts, shards, durableDir)
	if err != nil {
		return err
	}
	defer m.Close()
	log.Printf("maintainer: %s; batch: %d queries, apps: %v", kind, len(queries), apps.Names())

	start := time.Now()
	if _, err := m.Run(); err != nil {
		return fmt.Errorf("initial batch run: %w", err)
	}
	log.Printf("batch computed in %v", time.Since(start).Round(time.Millisecond))

	srv, err := serve.NewServer(serve.Config{
		DB:            ds.DB,
		Maintainer:    m,
		Queries:       queries,
		Apps:          apps,
		Admission:     adm,
		MaxResultRows: maxRows,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv,
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on http://%s", addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("got %v, shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("server drained; closing maintainer")
	return nil
}

// newMaintainer builds the serving session over shards shards, logged
// under durableDir when it is set. A durableDir that already holds state is
// recovered instead, with the shard count its manifest records, which must
// equal shards.
func newMaintainer(db *lmfao.Database, queries []*lmfao.Query, opts lmfao.Options, shards int, durableDir string) (*lmfao.Session, string, error) {
	so := lmfao.ShardOptions{Shards: shards}
	switch {
	case durableDir == "":
		s, err := lmfao.NewShardedSession(db, queries, opts, so)
		return s, fmt.Sprintf("session (%d shards)", shards), err
	case !hasState(durableDir):
		s, err := lmfao.NewDurableShardedSession(db, queries, opts, so, lmfao.DurableOptions{}, durableDir)
		return s, fmt.Sprintf("durable session (%d shards)", shards), err
	}
	s, err := lmfao.RecoverSession(durableDir, db, queries, opts, lmfao.DurableOptions{})
	if err != nil {
		return nil, "", err
	}
	if s.NumShards() != shards {
		s.Close()
		return nil, "", fmt.Errorf("-shards %d disagrees with the %d shards recorded in %s", shards, s.NumShards(), durableDir)
	}
	return s, fmt.Sprintf("durable session (recovered, %d shards)", s.NumShards()), nil
}

// hasState reports whether dir already holds durable session state.
func hasState(dir string) bool {
	entries, err := os.ReadDir(dir)
	return err == nil && len(entries) > 0
}

// combinedBatch concatenates the applications' canonical batches over the
// dataset and records each one's window for the serving tier.
func combinedBatch(ds *datagen.Dataset) ([]*lmfao.Query, *serve.Apps) {
	linSpec := workloads.LinRegSpec(ds)
	polySpec := lmfao.PolySpec{Continuous: ds.Continuous, Label: ds.Label, Lambda: 1e-3}
	cubeSpec := lmfao.CubeSpec{Dims: ds.CubeDims, Measures: ds.CubeMeasures}
	treeSpec := workloads.RTSpec(ds)

	var queries []*lmfao.Query
	window := func(batch []*lmfao.Query) serve.Window {
		lo := len(queries)
		queries = append(queries, batch...)
		return serve.Window{Lo: lo, Hi: len(queries)}
	}
	apps := &serve.Apps{}
	apps.LinReg = &serve.LinRegApp{Win: window(lmfao.CovarBatch(linSpec)), Spec: linSpec}
	apps.PolyReg = &serve.PolyRegApp{Win: window(lmfao.PolynomialBatch(ds.DB, polySpec)), Spec: polySpec}
	apps.ChowLiu = &serve.ChowLiuApp{Win: window(lmfao.MIBatch(ds.MIAttrs)), Attrs: ds.MIAttrs}
	apps.Cube = &serve.CubeApp{Win: window(lmfao.CubeBatch(cubeSpec)), Spec: cubeSpec}
	apps.Tree = &serve.TreeApp{Spec: treeSpec}
	return queries, apps
}
