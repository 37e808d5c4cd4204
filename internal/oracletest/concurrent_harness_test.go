package oracletest

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lmfao "repro"
	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
)

// Concurrent serving oracle: N reader goroutines hammer lmfao.Session
// snapshots while a single writer streams randomized deltas through Apply.
// Every snapshot any reader observes is identified by its epoch and base-
// relation version vector; after the stream drains, each distinct observed
// epoch is verified bit-exactly against a single-threaded brute-force
// baseline replayed over a pristine copy of the database to exactly that
// epoch's update prefix. The oracle therefore catches torn publications
// (a snapshot mixing two maintenance rounds), in-place patches of published
// views (an old snapshot changing value after a later round), and lost or
// reordered commits — on top of the plain wrong-answer bugs the
// single-threaded oracles catch. Run it under -race to also catch
// synchronization bugs with benign-looking values.

// cloneDatabase deep-copies db: attributes re-registered in ID order (IDs
// carry over verbatim) and every relation's columns copied. Dictionaries
// start empty — generated schemas never dictionary-encode strings.
func cloneDatabase(db *data.Database) (*data.Database, error) {
	out := data.NewDatabase()
	for i := 0; i < db.NumAttrs(); i++ {
		a := db.Attribute(data.AttrID(i))
		out.Attr(a.Name, a.Kind)
	}
	for _, r := range db.Relations() {
		cols := make([]data.Column, len(r.Cols))
		for ci, c := range r.Cols {
			if c.IsInt() {
				cols[ci] = data.NewIntColumn(append([]int64{}, c.Ints...))
			} else {
				cols[ci] = data.NewFloatColumn(append([]float64{}, c.Floats...))
			}
		}
		if err := out.AddRelation(data.NewRelation(r.Name, append([]data.AttrID{}, r.Attrs...), cols)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// observation is one reader's capture of a snapshot: the full contents of
// every query output (visible aggregate columns only) keyed by packed
// group-by tuple, plus the identity the publication protocol claims for it.
type observation struct {
	reader int
	epoch  uint64
	vv     lmfao.VersionVector
	rows   []map[string][]float64
}

// commitRecord is the writer-side ground truth for one published epoch: how
// many stream updates preceded it and the version vector it committed.
type commitRecord struct {
	prefix int
	vv     lmfao.VersionVector
}

// captureSnapshot reads every query output of sn in full and exercises the
// indexed Lookup path against the captured rows.
func captureSnapshot(t *testing.T, sn *lmfao.Snapshot, queries []*query.Query) *observation {
	obs := &observation{epoch: sn.Epoch(), vv: sn.VersionVector(), rows: make([]map[string][]float64, len(queries))}
	for qi, q := range queries {
		v := sn.Result(qi)
		obs.rows[qi] = viewRows(v, q.NumCols())
		if v.NumRows() == 0 {
			continue
		}
		key := v.Key(0)
		got, ok := sn.Lookup(qi, key...)
		if !ok {
			t.Errorf("snapshot epoch %d: Lookup(%d, %v) missed a present key", sn.Epoch(), qi, key)
			continue
		}
		want := obs.rows[qi][data.PackKey(key...)]
		if len(got) != len(want) {
			t.Errorf("snapshot epoch %d query %d: Lookup row has %d cols, scan has %d", sn.Epoch(), qi, len(got), len(want))
			continue
		}
		for c := range got {
			if got[c] != want[c] {
				t.Errorf("snapshot epoch %d query %d col %d: Lookup %v, scan %v", sn.Epoch(), qi, c, got[c], want[c])
			}
		}
	}
	return obs
}

// runConcurrentOracle drives the reader/writer race and verifies every
// distinct observed snapshot against the replayed baseline. genDelta
// produces the writer's update stream (nil streams GenDelta over the whole
// database).
func runConcurrentOracle(t *testing.T, rng *rand.Rand, s *Schema, queries []*query.Query, opts moo.Options, readers, rounds, maxRows int, genDelta func(*rand.Rand) data.Delta) {
	t.Helper()
	if genDelta == nil {
		genDelta = func(rng *rand.Rand) data.Delta { return GenDelta(rng, s.DB, maxRows) }
	}
	initial, err := cloneDatabase(s.DB)
	if err != nil {
		t.Fatal(err)
	}

	// Each round is held inside the writer until a reader completes a read
	// that began during the hold: a count over every relation's own (last)
	// attribute parks its factor while armed, however the scheduler runs.
	var (
		armed    atomic.Uint64 // round+1 while the next factor call parks; else 0
		parked   atomic.Uint64 // armed value of the park in progress; else 0
		held     atomic.Int64  // rounds held until a reader completed a read
		readDone = make(chan uint64)
	)
	const parkDeadline = 10 * time.Second
	park := func(float64) float64 {
		gen := armed.Swap(0)
		if gen == 0 {
			return 1
		}
		parked.Store(gen)
		defer parked.Store(0)
		deadline := time.After(parkDeadline)
		for {
			select {
			case g := <-readDone:
				if g == gen {
					held.Add(1)
					return 1
				}
			case <-deadline:
				t.Errorf("no reader completed a snapshot read within %v of a held Apply (read path blocked on the writer?)", parkDeadline)
				return 1
			}
		}
	}
	parkTerm := query.NewTerm()
	for _, r := range s.DB.Relations() {
		parkTerm.Factors = append(parkTerm.Factors, query.CustomF("park", r.Attrs[len(r.Attrs)-1], park))
	}
	queries = append(queries[:len(queries):len(queries)], query.NewQuery("park", nil, query.NewAggregate("park", parkTerm)))

	sess, err := lmfao.NewSession(s.DB, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}

	commits := make(map[uint64]commitRecord)
	first := sess.Head()
	commits[first.Epoch()] = commitRecord{prefix: 0, vv: first.VersionVector()}

	var (
		maxObserved atomic.Uint64 // highest epoch any reader captured
		stop        atomic.Bool
		wg          sync.WaitGroup
	)
	perReader := make([][]*observation, readers)
	wg.Add(readers)
	for ri := 0; ri < readers; ri++ {
		ri := ri
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			read := func() {
				gen := parked.Load()
				sn := sess.Head()
				if e := sn.Epoch(); e < lastEpoch {
					t.Errorf("reader %d: epoch went backwards: %d after %d", ri, e, lastEpoch)
					return
				} else if e != lastEpoch {
					// New epoch: capture it in full for post-run replay
					// verification. Re-reads of an already-captured epoch
					// stay cheap so readers keep pressure on the writer.
					obs := captureSnapshot(t, sn, queries)
					obs.reader = ri
					perReader[ri] = append(perReader[ri], obs)
					lastEpoch = e
					for {
						seen := maxObserved.Load()
						if seen >= e || maxObserved.CompareAndSwap(seen, e) {
							break
						}
					}
				} else if v := sn.Result(0); v.NumRows() > 0 {
					_, _ = sn.Lookup(0, v.Key(0)...)
				}
				if gen != 0 {
					select {
					case readDone <- gen:
					default:
					}
				}
			}
			for !stop.Load() {
				read()
				runtime.Gosched()
			}
			read() // final state
		}()
	}

	// The single writer: stream randomized deltas, recording each committed
	// epoch's ground truth. Alternate the sync and async entry points.
	var updates []data.Delta
	for r := 0; r < rounds; r++ {
		d := genDelta(rng)
		if !t.Failed() {
			armed.Store(uint64(r + 1))
		}
		var stats []*lmfao.ApplyStats
		if r%2 == 0 {
			stats, err = sess.Apply(d)
		} else {
			res := <-sess.ApplyAsync(d)
			stats, err = res.Stats, res.Err
		}
		armed.Store(0)
		if err != nil {
			t.Fatalf("round %d (%s +%d -%d): %v", r, d.Relation, d.InsertRows(), d.DeleteRows(), err)
		}
		for _, st := range stats {
			if !st.Incremental {
				t.Logf("round %d: full recompute fallback for %s", r, st.Relation)
			}
		}
		updates = append(updates, d)
		sn := sess.Head()
		commits[sn.Epoch()] = commitRecord{prefix: len(updates), vv: sn.VersionVector()}
		// Pace the stream: yield until some reader has captured this epoch,
		// so (nearly) every committed snapshot gets replay-verified instead
		// of only the handful a free-running writer lets readers catch. The
		// deadline keeps a wedged scheduler from hanging the test — paced
		// coverage degrades, correctness checks do not.
		deadline := time.Now().Add(2 * time.Second)
		for maxObserved.Load() < sn.Epoch() && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// The no-lock read path must keep readers progressing while maintenance
	// is in flight: some round must have been held until a read completed.
	if held.Load() == 0 {
		t.Errorf("no reader completed a snapshot read while Apply was in flight across %d rounds (read path blocked on the writer?)", rounds)
	}

	// Group observations by epoch; verify each distinct epoch once against
	// the replayed single-threaded baseline, and every duplicate capture
	// against the first (all readers of one epoch must agree bit-exactly).
	byEpoch := make(map[uint64][]*observation)
	for _, obss := range perReader {
		for _, o := range obss {
			byEpoch[o.epoch] = append(byEpoch[o.epoch], o)
		}
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	verified := 0
	for _, e := range epochs {
		c, ok := commits[e]
		if !ok {
			t.Fatalf("readers observed epoch %d that the writer never committed", e)
		}
		ref := byEpoch[e][0]
		if !ref.vv.Equal(c.vv) {
			t.Fatalf("epoch %d: snapshot version vector %v, writer committed %v", e, ref.vv, c.vv)
		}
		replayed, err := cloneDatabase(initial)
		if err != nil {
			t.Fatal(err)
		}
		for ui, u := range updates[:c.prefix] {
			if err := replayed.ApplyDelta(u); err != nil {
				t.Fatalf("epoch %d: replaying update %d: %v", e, ui, err)
			}
		}
		if got := ivm.CaptureVersions(replayed); !ref.vv.Equal(got) {
			t.Fatalf("epoch %d: snapshot pinned %v, replayed prefix of %d updates reaches %v", e, ref.vv, c.prefix, got)
		}
		base, err := baseline.New(replayed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			if err := diffRows(fmt.Sprintf("epoch %d reader %d query %s", e, ref.reader, q.Name),
				ref.rows[qi], want[qi].Rows, Exact); err != nil {
				t.Fatal(err)
			}
		}
		for _, dup := range byEpoch[e][1:] {
			if !dup.vv.Equal(ref.vv) {
				t.Fatalf("epoch %d: readers %d and %d disagree on version vector", e, ref.reader, dup.reader)
			}
			for qi, q := range queries {
				if err := diffRows(fmt.Sprintf("epoch %d readers %d vs %d query %s", e, dup.reader, ref.reader, q.Name),
					dup.rows[qi], ref.rows[qi], Exact); err != nil {
					t.Fatal(err)
				}
			}
		}
		verified++
	}
	if verified < 2 {
		t.Fatalf("only %d distinct epochs observed; the stream never overlapped the readers", verified)
	}
	t.Logf("verified %d distinct epochs across %d readers (%d rounds held until a read completed)",
		verified, readers, held.Load())
}
