package moo

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/query"
)

// resampleDelta deletes one random tuple of rel and inserts a copy of
// another.
func resampleDelta(rng *rand.Rand, rel *data.Relation) data.Delta {
	del, ins := rng.Intn(rel.Len()), rng.Intn(rel.Len())
	d := data.Delta{Relation: rel.Name}
	for _, c := range rel.Cols {
		if c.IsInt() {
			d.Deletes = append(d.Deletes, data.NewIntColumn([]int64{c.Ints[del]}))
			d.Inserts = append(d.Inserts, data.NewIntColumn([]int64{c.Ints[ins]}))
		} else {
			d.Deletes = append(d.Deletes, data.NewFloatColumn([]float64{c.Floats[del]}))
			d.Inserts = append(d.Inserts, data.NewFloatColumn([]float64{c.Floats[ins]}))
		}
	}
	return d
}

// TestKernelKeyDeterminesStep checks that (changed node, group) is a sound
// kernel cache key: after a delta stream against two relations, every cached
// kernel holds exactly the step a fresh ivm.Analyze of the plan yields for
// its changed node and group, and the cache holds one kernel per distinct
// (changed node, dirty group) pair the stream scheduled. The triangle schema
// folds R into a materialized bag, so its deltas are maintained at the bag.
func TestKernelKeyDeterminesStep(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*data.Database, []*query.Query)
		rels  []string
	}{
		{"star", func() (*data.Database, []*query.Query) {
			db, ids := starDB(t, 500, 3)
			return db, starQueries(ids)
		}, []string{"D1", "F"}},
		{"triangle", func() (*data.Database, []*query.Query) {
			db, attrs := triangleDB(t, 5)
			return db, []*query.Query{
				query.NewQuery("count", nil, query.CountAgg()),
				query.NewQuery("bya", []data.AttrID{attrs[0]}, query.SumAgg(attrs[3])),
			}
		}, []string{"R", "T"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, queries := tc.build()
			eng, err := NewEngine(db, Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1, TrackCounts: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(queries)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			seen := map[kernelKey]bool{}
			for step := 0; step < 8; step++ {
				rel := db.Relation(tc.rels[step%2])
				d := resampleDelta(rng, rel)
				if err := db.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				var stats *ApplyStats
				if res, stats, err = eng.Apply(res, d); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if stats.DirtyGroups == 0 {
					continue // the delta left the maintained node unchanged
				}
				node := eng.Tree().NodeByRelation(rel.Name)
				if node == nil {
					node = eng.Tree().NodeByMember(rel.Name)
				}
				sched, err := ivm.Analyze(res.Plan, node.ID)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range sched.Steps {
					seen[kernelKey{changed: node.ID, group: st.Group}] = true
				}
			}
			if len(seen) == 0 {
				t.Fatal("no delta reached a maintenance step")
			}
			for _, n := range eng.Tree().Nodes {
				sched, err := ivm.Analyze(res.Plan, n.ID)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range sched.Steps {
					key := kernelKey{changed: n.ID, group: st.Group}
					k, ok := eng.kernels[key]
					if ok != seen[key] {
						t.Fatalf("kernel %+v cached=%v, scheduled=%v", key, ok, seen[key])
					}
					if ok && !reflect.DeepEqual(k.st, st) {
						t.Fatalf("kernel %+v holds step %+v, Analyze gives %+v", key, k.st, st)
					}
				}
			}
			if cs := eng.KernelCacheStats(); cs.Size != len(seen) || cs.Hits == 0 {
				t.Fatalf("cache %+v, want size %d and hits", cs, len(seen))
			}
		})
	}
}
