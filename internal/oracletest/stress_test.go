package oracletest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/moo"
)

func TestIVMStressMany(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: seed%2 == 0, Threads: 1 + int(seed%4)}
			sessionSteps(t, rng, s.DB, queries, opts, 6, 15, Exact)
		})
	}
}
