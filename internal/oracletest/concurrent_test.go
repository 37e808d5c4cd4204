package oracletest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/moo"
)

// concurrentScale returns the reader/round counts for the concurrent oracle:
// the full configuration (the race job's target: ≥4 readers, ≥50 streamed
// Apply rounds) by default, a lighter one under -short for PR CI.
func concurrentScale() (readers, rounds int) {
	if testing.Short() {
		return 2, 12
	}
	return 4, 60
}

// TestConcurrentSnapshotOracle is the race-hardened differential harness:
// reader goroutines hammer session snapshots while the writer streams
// randomized deltas (inserts and deletes, fact and dimension tables, bag
// members on cyclic schemas) through Apply/ApplyAsync. Every observed
// snapshot must be bit-exact with the single-threaded baseline replayed to
// that snapshot's version vector, all readers of an epoch must agree, and
// readers must make progress while maintenance is in flight.
func TestConcurrentSnapshotOracle(t *testing.T) {
	readers, rounds := concurrentScale()
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(700 + seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true,
				Threads: 1 + int(seed%3), DomainParallelRows: 8}
			runConcurrentOracle(t, rng, s, queries, opts, readers, rounds, 6, nil)
		})
	}
}

// TestConcurrentSnapshotOracleDimensionStream pins the semi-join-restricted
// maintenance path under concurrency: a star schema with a dimension-only
// update stream, the configuration where restricted scans fire on almost
// every round.
func TestConcurrentSnapshotOracleDimensionStream(t *testing.T) {
	readers, rounds := concurrentScale()
	rng := rand.New(rand.NewSource(800))
	s, err := genStar(rng, true)
	if err != nil {
		t.Fatal(err)
	}
	queries := GenQueries(rng, s)
	opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 2}
	var dims []*data.Relation
	for _, r := range s.DB.Relations() {
		if r.Name != "F" {
			dims = append(dims, r)
		}
	}
	runConcurrentOracle(t, rng, s, queries, opts, readers, rounds, 6,
		func(rng *rand.Rand) data.Delta {
			return GenDeltaOn(rng, dims[rng.Intn(len(dims))], 6)
		})
}
