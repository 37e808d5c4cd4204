package ivm

import "strings"

// ShardVector is the version metadata of a sharded maintained state: one
// VersionVector per shard, indexed by shard id. A merged sharded snapshot
// (lmfao.Session.Snapshot) is pinned to a ShardVector — each
// component identifies the base state its shard's views reflect, exactly as
// a single session's snapshot is pinned to one VersionVector. Consistency is
// per shard: component s is a genuine committed state of shard s, but
// distinct components may reflect different prefixes of a broadcast
// (dimension) update stream until the fan-out drains.
type ShardVector []VersionVector

// Clone returns an independent deep copy.
func (sv ShardVector) Clone() ShardVector {
	out := make(ShardVector, len(sv))
	for i, vv := range sv {
		out[i] = vv.Clone()
	}
	return out
}

// Equal reports whether both vectors have the same shard count and every
// shard pins the same versions.
func (sv ShardVector) Equal(other ShardVector) bool {
	if len(sv) != len(other) {
		return false
	}
	for i, vv := range sv {
		if !vv.Equal(other[i]) {
			return false
		}
	}
	return true
}

// String renders the vector deterministically, one component per shard in
// shard order.
func (sv ShardVector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, vv := range sv {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(vv.String())
	}
	b.WriteByte(']')
	return b.String()
}
