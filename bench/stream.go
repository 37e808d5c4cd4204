package main

import (
	"fmt"
	"math/rand"
	"sort"

	lmfao "repro"
	"repro/internal/data"
)

// The generators below build update streams from the harness's seed against
// their own mirror of the relation they mutate, never against the live
// database: a delete always names a row the stream itself knows to be live,
// so no operation of a workload fails, and the same seed yields a
// byte-identical stream.

// perturb scales a numeric value by 0.875, 1 or 1.125.
func perturb(rng *rand.Rand, v float64) float64 {
	return v * (1 + 0.125*float64(rng.Intn(3)-1))
}

func copyColumns(cols []data.Column) []data.Column {
	out := make([]data.Column, len(cols))
	for i, c := range cols {
		if c.IsInt() {
			out[i] = data.NewIntColumn(append([]int64(nil), c.Ints...))
		} else {
			out[i] = data.NewFloatColumn(append([]float64(nil), c.Floats...))
		}
	}
	return out
}

// gather copies the given rows of cols into a fresh block.
func gather(cols []data.Column, rows []int32) []data.Column {
	out := make([]data.Column, len(cols))
	for ci, c := range cols {
		if c.IsInt() {
			vals := make([]int64, len(rows))
			for i, r := range rows {
				vals[i] = c.Ints[r]
			}
			out[ci] = data.NewIntColumn(vals)
		} else {
			vals := make([]float64, len(rows))
			for i, r := range rows {
				vals[i] = c.Floats[r]
			}
			out[ci] = data.NewFloatColumn(vals)
		}
	}
	return out
}

// minDimRows is the fewest rows a dimension update touches. One row of a
// small relation may join nothing (a Census zip no Location has), which
// makes that update nearly free and a short stream's cost bimodal.
const minDimRows = 4

// dimStream deletes and re-inserts, with perturbed numeric attributes, a
// share of one dimension relation per update, round-robin over relations.
// Keys are never changed, so every join partner stays.
type dimStream struct {
	rng   *rand.Rand
	rels  []*dimMirror
	share float64
	next  int
}

type dimMirror struct {
	name string
	cols []data.Column
	n    int
}

func newDimStream(rng *rand.Rand, db *lmfao.Database, names []string, share float64) *dimStream {
	s := &dimStream{rng: rng, share: share}
	for _, name := range names {
		rel := db.Relation(name)
		s.rels = append(s.rels, &dimMirror{name: name, cols: copyColumns(rel.Cols), n: rel.Len()})
	}
	return s
}

// update returns the next update of the round-robin.
func (s *dimStream) update() lmfao.Update {
	m := s.rels[s.next%len(s.rels)]
	s.next++
	k := min(m.n, max(minDimRows, int(s.share*float64(m.n))))
	rows := make([]int32, k)
	for i, r := range s.rng.Perm(m.n)[:k] {
		rows[i] = int32(r)
	}
	del := gather(m.cols, rows)
	for _, c := range m.cols {
		if c.IsInt() {
			continue
		}
		for _, r := range rows {
			c.Floats[r] = perturb(s.rng, c.Floats[r])
		}
	}
	return lmfao.Update{Relation: m.name, Deletes: del, Inserts: gather(m.cols, rows)}
}

// factStream deletes live rows of the fact relation and inserts perturbed
// clones of live rows. Each row's shard-key value is drawn by rank from a
// Zipf distribution over the key's values in ascending order (uniformly when
// skew is 0): which values are hot, and so how uneven the shards are, is a
// property of the workload, and the seed only draws from it.
type factStream struct {
	rng  *rand.Rand
	name string
	// cols mirrors the relation and only grows; pools holds, per key value,
	// the ids of its live rows.
	cols   []data.Column
	keyCol int
	keys   []int64
	pools  map[int64][]int32
	zipf   *rand.Zipf
}

func newFactStream(rng *rand.Rand, rel *lmfao.Relation, key lmfao.AttrID, skew float64) (*factStream, error) {
	s := &factStream{rng: rng, name: rel.Name, cols: copyColumns(rel.Cols), keyCol: -1, pools: map[int64][]int32{}}
	for ci, a := range rel.Attrs {
		if a == key {
			s.keyCol = ci
		}
	}
	if s.keyCol < 0 || !s.cols[s.keyCol].IsInt() {
		return nil, fmt.Errorf("stream: %q has no discrete shard-key column", rel.Name)
	}
	for i, k := range s.cols[s.keyCol].Ints {
		if _, ok := s.pools[k]; !ok {
			s.keys = append(s.keys, k)
		}
		s.pools[k] = append(s.pools[k], int32(i))
	}
	sort.Slice(s.keys, func(i, j int) bool { return s.keys[i] < s.keys[j] })
	if skew > 0 && len(s.keys) > 1 {
		s.zipf = rand.NewZipf(rng, skew, 1, uint64(len(s.keys)-1))
	}
	return s, nil
}

// pickKey draws a key with at least two live rows (so that a
// delete never empties a key), walking to the next rank when needed.
func (s *factStream) pickKey() int64 {
	var rank int
	if s.zipf != nil {
		rank = int(s.zipf.Uint64())
	} else {
		rank = s.rng.Intn(len(s.keys))
	}
	for len(s.pools[s.keys[rank]]) < 2 {
		rank = (rank + 1) % len(s.keys)
	}
	return s.keys[rank]
}

// update returns one update of nDel deletes and nIns inserts.
func (s *factStream) update(nDel, nIns int) lmfao.Update {
	del := make([]int32, nDel)
	for i := range del {
		k := s.pickKey()
		pool := s.pools[k]
		j := s.rng.Intn(len(pool))
		del[i] = pool[j]
		pool[j] = pool[len(pool)-1]
		s.pools[k] = pool[:len(pool)-1]
	}
	ins := make([]int32, nIns)
	for i := range ins {
		k := s.pickKey()
		pool := s.pools[k]
		src := pool[s.rng.Intn(len(pool))]
		id := int32(s.cols[0].Len())
		for ci := range s.cols {
			c := &s.cols[ci]
			if c.IsInt() {
				c.Ints = append(c.Ints, c.Ints[src])
			} else {
				c.Floats = append(c.Floats, perturb(s.rng, c.Floats[src]))
			}
		}
		s.pools[k] = append(pool, id)
		ins[i] = id
	}
	return lmfao.Update{Relation: s.name, Deletes: gather(s.cols, del), Inserts: gather(s.cols, ins)}
}

// live returns the relation's current rows as the stream knows them: what
// the maintained database must hold once every update has been applied.
func (s *factStream) live() []data.Column {
	var ids []int32
	for _, k := range s.keys {
		ids = append(ids, s.pools[k]...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return gather(s.cols, ids)
}
