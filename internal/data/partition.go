package data

import "fmt"

// Hash partitioning for sharded maintenance (lmfao.NewShardedSession): the fact
// relation of a schema is split into N shards on a join key, every other
// relation is replicated, and each shard database is maintained by an
// independent writer. The helpers here are the single source of truth for
// the routing function — the loader (PartitionDatabase), the delta router
// (RouteDelta) and any consumer re-deriving a tuple's shard must all agree,
// so they all go through ShardOf.

// ShardOf returns the shard in [0, n) a key tuple routes to: a deterministic
// 64-bit mix (splitmix64 over each component, chained) reduced mod n. The
// mapping depends only on the key values and n — never on insertion order or
// process state — so a tuple and the deltas that later delete it always land
// on the same shard.
func ShardOf(key []int64, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range key {
		x := uint64(v) + 0x9e3779b97f4a7c15 + h
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		h = x
	}
	return int(h % uint64(n))
}

// keyPositions resolves attrs to their column positions in rel's schema,
// checking every one is discrete (hashable).
func (r *Relation) keyPositions(attrs []AttrID) ([]int, error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		p := r.colIndex(a)
		if p < 0 {
			return nil, fmt.Errorf("data: relation %q: shard key attribute %d not in schema", r.Name, a)
		}
		if !r.Cols[p].IsInt() {
			return nil, fmt.Errorf("data: relation %q: shard key attribute %d is numeric", r.Name, a)
		}
		pos[i] = p
	}
	return pos, nil
}

// PartitionBlock routes a tuple block (one column per attribute of the
// owning relation, schema order) into n per-shard blocks by hashing the key
// columns at keyPos. Shards that receive no rows get a nil block, so callers
// can skip them without length checks. Row order is preserved within each
// shard. The returned blocks hold fresh storage.
func PartitionBlock(cols []Column, keyPos []int, n int) [][]Column {
	rows := blockLen(cols)
	out := make([][]Column, n)
	if rows == 0 {
		return out
	}
	perShard := make([][]int32, n)
	key := make([]int64, len(keyPos))
	for i := 0; i < rows; i++ {
		for j, p := range keyPos {
			key[j] = cols[p].Ints[i]
		}
		s := ShardOf(key, n)
		perShard[s] = append(perShard[s], int32(i))
	}
	for s, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		block := make([]Column, len(cols))
		for ci, c := range cols {
			block[ci] = c.gather(idx)
		}
		out[s] = block
	}
	return out
}

// PartitionBy splits the relation into n new relations by hashing the given
// discrete key attributes, preserving row order within each shard. Every
// shard relation has fresh column storage (shard s may be empty but is never
// nil) and carries the receiver's name, so shard databases keep the original
// schema vocabulary.
func (r *Relation) PartitionBy(attrs []AttrID, n int) ([]*Relation, error) {
	if n < 1 {
		return nil, fmt.Errorf("data: relation %q: partition into %d shards", r.Name, n)
	}
	keyPos, err := r.keyPositions(attrs)
	if err != nil {
		return nil, err
	}
	blocks := PartitionBlock(r.Cols, keyPos, n)
	out := make([]*Relation, n)
	for s := range out {
		if blocks[s] == nil {
			// An empty shard still needs typed columns so kind checks pass.
			empty := make([]Column, len(r.Cols))
			for ci, c := range r.Cols {
				if c.IsInt() {
					empty[ci] = Column{Ints: []int64{}}
				} else {
					empty[ci] = Column{Floats: []float64{}}
				}
			}
			blocks[s] = empty
		}
		out[s] = NewRelation(r.Name, append([]AttrID(nil), r.Attrs...), blocks[s])
	}
	return out, nil
}

// clone returns a deep copy of the relation (fresh column storage, no
// caches).
func (r *Relation) clone() *Relation {
	return NewRelation(r.Name, append([]AttrID(nil), r.Attrs...), copyBlock(r.Cols))
}

// PartitionDatabase splits db into n shard databases for sharded
// maintenance: the relation named fact is hash-partitioned on the key
// attributes via ShardOf, every other relation is replicated (deep-copied,
// so shard writers can mutate independently), and the attribute registry is
// re-registered in ID order — AttrIDs, names and kinds carry over verbatim,
// so queries and join trees built against db's vocabulary are valid against
// every shard. Categorical dictionaries are NOT copied: shard databases hold
// already-encoded codes, and decoding stays with the source database.
//
// The source database is left untouched and shares no row storage with the
// shards.
func PartitionDatabase(db *Database, fact string, key []AttrID, n int) ([]*Database, error) {
	if n < 1 {
		return nil, fmt.Errorf("data: partition into %d shards", n)
	}
	factRel := db.Relation(fact)
	if factRel == nil {
		return nil, fmt.Errorf("data: partition: unknown fact relation %q", fact)
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("data: partition of %q: empty shard key", fact)
	}
	parts, err := factRel.PartitionBy(key, n)
	if err != nil {
		return nil, err
	}
	out := make([]*Database, n)
	for s := range out {
		shard := NewDatabase()
		for i := 0; i < db.NumAttrs(); i++ {
			a := db.attrs[i]
			shard.Attr(a.Name, a.Kind)
		}
		for _, r := range db.relations {
			rel := parts[s]
			if r.Name != fact {
				rel = r.clone()
			}
			if err := shard.AddRelation(rel); err != nil {
				return nil, fmt.Errorf("data: partition shard %d: %w", s, err)
			}
		}
		out[s] = shard
	}
	return out, nil
}

// RouteDelta splits a delta against the partitioned fact relation into n
// per-shard deltas by hashing each tuple's key values — inserts and deletes
// route independently, and a delete reaches exactly the shard its matching
// tuple was routed to (ShardOf is value-deterministic). Shards the delta
// does not touch get an empty delta (d.Empty() reports true), so callers can
// skip them. rel must be the fact relation's schema carrier (any shard's or
// the source's instance works; only the schema is read).
func RouteDelta(rel *Relation, d Delta, key []AttrID, n int) ([]Delta, error) {
	keyPos, err := rel.keyPositions(key)
	if err != nil {
		return nil, err
	}
	if d.Inserts != nil {
		if _, err := rel.checkBlock(d.Inserts); err != nil {
			return nil, err
		}
	}
	if d.Deletes != nil {
		if _, err := rel.checkBlock(d.Deletes); err != nil {
			return nil, err
		}
	}
	out := make([]Delta, n)
	for s := range out {
		out[s].Relation = d.Relation
	}
	if d.InsertRows() > 0 {
		for s, block := range PartitionBlock(d.Inserts, keyPos, n) {
			out[s].Inserts = block
		}
	}
	if d.DeleteRows() > 0 {
		for s, block := range PartitionBlock(d.Deletes, keyPos, n) {
			out[s].Deletes = block
		}
	}
	return out, nil
}
