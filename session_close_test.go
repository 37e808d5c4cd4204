package lmfao

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// closeFixture builds one maintainer of each serving kind over independent
// copies of the sessionFixture database, runs it, and hands back a closer
// probe. The table below drives the shared Close contract across all four:
// Close is idempotent, Apply/ApplyAsync/Run after Close fail with
// errSessionClosed (never panic or hang), and the last published snapshot
// stays readable.
func closeFixtures(t *testing.T) map[string]Maintainer {
	t.Helper()
	mk := func() (*Database, []*Query) {
		db, _, amount, region := sessionFixture(t)
		return db, []*Query{
			NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
			NewQuery("total", nil, Sum(amount)),
		}
	}
	out := map[string]Maintainer{}

	db, queries := mk()
	sess, err := NewSession(db, queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out["session"] = sess

	db, queries = mk()
	sharded, err := NewShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	out["sharded"] = sharded

	db, queries = mk()
	durable, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out["durable"] = durable

	db, queries = mk()
	dsharded, err := NewDurableShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2}, DurableOptions{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out["durable-sharded"] = dsharded

	return out
}

func TestCloseContract(t *testing.T) {
	for name, m := range closeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			u := Update{Relation: "sales",
				Inserts: []Column{IntColumn([]int64{2}), FloatColumn([]float64{10})}}
			if _, err := m.Apply(u); err != nil {
				t.Fatalf("pre-close apply: %v", err)
			}
			pre := m.Snapshot()
			if pre == nil {
				t.Fatal("no snapshot before close")
			}

			m.Close()
			m.Close() // idempotent
			m.Wait()  // no deadlock after close

			if _, err := m.Apply(u); !errors.Is(err, errSessionClosed) {
				t.Fatalf("apply after close: err = %v, want errSessionClosed", err)
			}
			res := <-m.ApplyAsync(u)
			if !errors.Is(res.Err, errSessionClosed) {
				t.Fatalf("async apply after close: err = %v, want errSessionClosed", res.Err)
			}
			if _, err := m.Run(); !errors.Is(err, errSessionClosed) {
				t.Fatalf("run after close: err = %v, want errSessionClosed", err)
			}

			// The last published snapshot stays readable after Close.
			sn := m.Snapshot()
			if sn == nil {
				t.Fatal("snapshot gone after close")
			}
			if got := sn.NumQueries(); got != 2 {
				t.Fatalf("snapshot serves %d queries, want 2", got)
			}
			if _, ok := sn.Lookup(1); !ok {
				t.Fatal("scalar lookup failed on post-close snapshot")
			}
		})
	}
}

// TestDurableCloseThenRecover pins the Close/Recover interplay: a closed
// durable session's directory recovers without replay (the final checkpoint
// covers the log), and closing the recovered session again is clean.
func TestDurableCloseThenRecover(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
	dir := t.TempDir()
	d, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	u := Update{Relation: "sales",
		Inserts: []Column{IntColumn([]int64{0}), FloatColumn([]float64{7})}}
	if _, err := d.Apply(u); err != nil {
		t.Fatal(err)
	}
	want := lookupRow(t, d.Head().Result(1))
	d.Close()

	pristine, _, _, _ := sessionFixture(t)
	// Recovery needs the same pre-update base data, not the mutated db.
	rec, err := RecoverSession(dir, pristine, queries, DefaultOptions(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := lookupRow(t, rec.Head().Result(1)); got[0] != want[0] {
		t.Fatalf("recovered total %v, want %v", got, want)
	}
	if got, want := rec.LastLSN(), uint64(1); got != want {
		t.Fatalf("recovered LSN %d, want %d", got, want)
	}
}

// TestSessionSnapshotInterfaceNil audits the typed-nil hazard on
// Maintainer.Snapshot: before the first Run, every maintainer kind must
// return an UNTYPED nil Queryable — never a (*Snapshot)(nil) wrapped in the
// interface, which would compare non-nil and crash serving-tier
// `snapshot == nil` guards. Covers all four Maintainer implementations.
func TestSessionSnapshotInterfaceNil(t *testing.T) {
	for name, m := range closeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			defer m.Close()
			if sn := m.Snapshot(); sn != nil {
				t.Fatalf("Snapshot() before Run = %#v (%T), want untyped nil", sn, sn)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if sn := m.Snapshot(); sn == nil {
				t.Fatal("Snapshot() nil after Run")
			}
		})
	}
}

// TestErrSessionClosedExported pins the exported sentinel to the one every
// maintainer actually returns, so errors.Is works across the API boundary.
func TestErrSessionClosedExported(t *testing.T) {
	if !errors.Is(ErrSessionClosed, errSessionClosed) {
		t.Fatal("ErrSessionClosed is not errSessionClosed")
	}
}

// TestCloseLeavesNoGoroutines pins the writer's shutdown: after Close (and
// Kill, for the two durable kinds) of a maintainer that served async
// rounds, the goroutine count returns to its pre-construction level — no
// writer loop, stage or delivery goroutine survives.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	kill := func(m Maintainer) { m.(interface{ Kill() }).Kill() }
	cases := []struct {
		kind, how string
		stop      func(Maintainer)
	}{
		{"session", "close", Maintainer.Close},
		{"sharded", "close", Maintainer.Close},
		{"durable", "close", Maintainer.Close},
		{"durable-sharded", "close", Maintainer.Close},
		{"durable", "kill", kill},
		{"durable-sharded", "kill", kill},
	}
	for _, tc := range cases {
		t.Run(tc.kind+"/"+tc.how, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ms := closeFixtures(t)
			for kind, m := range ms {
				if kind != tc.kind {
					m.Close()
				}
			}
			m := ms[tc.kind]
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			var chans []<-chan ApplyResult
			for i := 0; i < 8; i++ {
				chans = append(chans, m.ApplyAsync(Update{Relation: "sales",
					Inserts: []Column{IntColumn([]int64{int64(i % 3)}), FloatColumn([]float64{float64(i)})}}))
			}
			for _, ch := range chans {
				if res := <-ch; res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			tc.stop(m)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after %s, %d before construction", runtime.NumGoroutine(), tc.how, before)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestCloseDurableShardedDrainsCheckpointRound pins the drain contract for
// a round that crosses the coordinated checkpoint interval: the round's
// checkpoint is part of it, so a Close right after ApplyAsync drains the
// round and its checkpoint instead of failing them with errSessionClosed,
// and Close's final round leaves every shard checkpointed at its last LSN.
func TestCloseDurableShardedDrainsCheckpointRound(t *testing.T) {
	for i := 0; i < 5; i++ {
		db, _, amount, region := sessionFixture(t)
		queries := []*Query{
			NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
			NewQuery("total", nil, Sum(amount)),
		}
		dir := t.TempDir()
		s, err := NewDurableShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2}, DurableOptions{CheckpointEvery: 1}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		ch := s.ApplyAsync(Update{Relation: "sales",
			Inserts: []Column{IntColumn([]int64{1}), FloatColumn([]float64{85})}})
		s.Close()
		if res := <-ch; res.Err != nil {
			t.Fatalf("round accepted before Close failed: %v", res.Err)
		}
		for sh, ck := range newestShardCheckpoints(t, dir, s.NumShards()) {
			if last := s.Shard(sh).LastLSN(); ck.LSN != last {
				t.Fatalf("shard %d: newest checkpoint at LSN %d after Close, want its last LSN %d", sh, ck.LSN, last)
			}
		}
		if got := lookupRow(t, s.Head().Result(1)); got[0] != 100 {
			t.Fatalf("total after drained Close = %v, want 100", got[0])
		}
	}
}
