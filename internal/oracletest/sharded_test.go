package oracletest

import (
	"fmt"
	"math/rand"
	"testing"

	lmfao "repro"
	"repro/internal/baseline"
	"repro/internal/moo"
)

// Sharded maintenance oracle: the same randomized update stream drives an
// unsharded lmfao.Session and a sharded lmfao.ShardedSession built over a
// clone of the same database, and after every streamed round the merged
// sharded snapshot must agree bit-exactly — every query, every group, every
// column including the hidden tuple counts — with the unsharded session
// (and, periodically, with the brute-force baseline). Generated values are
// dyadic, so per-shard partial sums recombine exactly regardless of shard
// count or summation order; any disagreement is a real partitioning, routing
// or merge bug, not float drift.

// shardedScale returns the streamed round count: the full configuration
// (≥50 Apply rounds, the acceptance target) by default, a lighter one under
// -short for PR CI.
func shardedScale() int {
	if testing.Short() {
		return 12
	}
	return 55
}

// requireShardedAgreement compares every query output of the merged sharded
// snapshot against the unsharded session, all columns (-1: hidden counts
// included), bit-exactly.
func requireShardedAgreement(t *testing.T, label string, sn *lmfao.ShardedSnapshot, single *lmfao.Session, nq int) {
	t.Helper()
	for qi := 0; qi < nq; qi++ {
		merged, err := sn.MergedResult(qi)
		if err != nil {
			t.Fatalf("%s: query %d: %v", label, qi, err)
		}
		got := viewRows(merged, -1)
		want := viewRows(single.Result().Results[qi], -1)
		if err := diffRows(fmt.Sprintf("%s/query %d", label, qi), got, want, Exact); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardedSessionOracle(t *testing.T) {
	rounds := shardedScale()
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(900 + seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true,
				Threads:     1 + int(seed%3),
				TrackCounts: true}

			clone, err := cloneDatabase(s.DB)
			if err != nil {
				t.Fatal(err)
			}
			single, err := lmfao.NewSession(s.DB, queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := single.Run(); err != nil {
				t.Fatal(err)
			}
			shards := 2 + int(seed%3)
			// Default fact/key selection: the largest relation, sharded on
			// its first shared discrete attribute.
			sharded, err := lmfao.NewShardedSession(clone, queries, opts, lmfao.ShardOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer sharded.Close()
			if _, err := sharded.Run(); err != nil {
				t.Fatal(err)
			}
			requireShardedAgreement(t, "initial", sharded.Head(), single, len(queries))

			applied := 0
			for r := 0; r < rounds; r++ {
				// 1-3 updates per round, fanned through ApplyAsync so the
				// per-shard queues get real batching/coalescing pressure;
				// Wait drains the fan-out before the lockstep comparison.
				nu := 1 + rng.Intn(3)
				var chans []<-chan lmfao.ApplyResult
				for u := 0; u < nu; u++ {
					// Generate from the unsharded database's CURRENT state
					// (deletes sample live rows), then apply to both sides.
					d := GenDelta(rng, s.DB, 6)
					if _, err := single.Apply(d); err != nil {
						t.Fatalf("round %d: unsharded: %v", r, err)
					}
					chans = append(chans, sharded.ApplyAsync(d))
					applied++
				}
				for _, ch := range chans {
					if res := <-ch; res.Err != nil {
						t.Fatalf("round %d: sharded: %v", r, res.Err)
					}
				}
				sharded.Wait()
				requireShardedAgreement(t, fmt.Sprintf("round %d", r), sharded.Head(), single, len(queries))

				if r%10 == 9 {
					// Belt and braces: the merged outputs against a fresh
					// brute-force evaluation of the mutated database.
					base, err := baseline.New(s.DB)
					if err != nil {
						t.Fatal(err)
					}
					want, err := base.Run(queries)
					if err != nil {
						t.Fatal(err)
					}
					sn := sharded.Head()
					for qi, q := range queries {
						merged, err := sn.MergedResult(qi)
						if err != nil {
							t.Fatal(err)
						}
						got := viewRows(merged, q.NumCols())
						if err := diffRows(fmt.Sprintf("round %d baseline/query %s", r, q.Name), got, want[qi].Rows, Exact); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			st := sharded.Stats()
			if st.Rounds == 0 || st.Enqueued == 0 {
				t.Fatalf("fan-out counters never moved: %+v", st)
			}
			t.Logf("verified %d rounds (%d updates) across %d shards: %d shard-updates enqueued, %d applied in %d rounds",
				rounds, applied, shards, st.Enqueued, st.Applied, st.Rounds)
		})
	}
}

// TestShardedSessionOracleFactStream pins the pure fan-out path: a star
// schema with a fact-only update stream, where every update partitions
// across shards and no broadcast ever happens — the configuration the
// sharded bench measures, replayed here for exactness at ≥50 rounds.
func TestShardedSessionOracleFactStream(t *testing.T) {
	rounds := shardedScale()
	rng := rand.New(rand.NewSource(901))
	s, err := genStar(rng, false)
	if err != nil {
		t.Fatal(err)
	}
	queries := GenQueries(rng, s)
	opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 2,
		TrackCounts: true}
	clone, err := cloneDatabase(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	single, err := lmfao.NewSession(s.DB, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Run(); err != nil {
		t.Fatal(err)
	}
	sharded, err := lmfao.NewShardedSession(clone, queries, opts,
		lmfao.ShardOptions{Shards: 4, Relation: "F"})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if _, err := sharded.Run(); err != nil {
		t.Fatal(err)
	}
	fact := s.DB.Relation("F")
	for r := 0; r < rounds; r++ {
		d := GenDeltaOn(rng, fact, 6)
		if _, err := single.Apply(d); err != nil {
			t.Fatalf("round %d: unsharded: %v", r, err)
		}
		if _, err := sharded.Apply(d); err != nil {
			t.Fatalf("round %d: sharded: %v", r, err)
		}
		requireShardedAgreement(t, fmt.Sprintf("fact round %d", r), sharded.Head(), single, len(queries))
	}
}
