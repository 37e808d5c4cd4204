package lmfao

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// DurableShardedSession is the durable counterpart of ShardedSession: the
// same fanout, over logged writers. The fact relation is hash-partitioned
// across N shards, each maintained by its own DurableSession with its own
// write-ahead log and checkpoints under dir/shard-N/. A manifest
// (dir/MANIFEST.json) records the partitioning so recovery re-partitions
// the pristine database identically.
//
// Shard writers never coalesce: each logs and applies its updates one
// record at a time, in routing order, which is what makes per-shard
// recovery deterministic — coalescing merges depend on queue timing and
// would make the replayed version vector diverge from the live one.
//
// Checkpoints are coordinated by the fanout: a checkpoint round enqueues
// one checkpoint job on every shard behind all accepted work. Automatic
// rounds trigger on the total update count across shards
// (DurableOptions.CheckpointEvery), behind the call that crossed the
// interval whatever its outcome; the per-shard automatic policy is disabled
// in favor of this coordination.
//
// DurableShardedSession implements Maintainer.
type DurableShardedSession struct {
	fanout
	shards []*DurableSession
	dir    string
}

// shardManifest is the durable record of the partitioning, without which a
// recovery could not re-partition the pristine database identically.
type shardManifest struct {
	Shards int      `json:"shards"`
	Fact   string   `json:"fact"`
	Key    []AttrID `json:"key"`
}

func manifestPath(dir string) string    { return filepath.Join(dir, "MANIFEST.json") }
func shardDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d", i)) }

// NewDurableShardedSession partitions db per so and builds one
// DurableSession per shard under dir/shard-N/, writing the partitioning
// manifest. The directory must not already hold durable sharded state; use
// RecoverShardedSession for that.
func NewDurableShardedSession(db *Database, queries []*Query, opts Options, so ShardOptions, dopts DurableOptions, dir string) (*DurableShardedSession, error) {
	if _, err := os.Stat(manifestPath(dir)); err == nil {
		return nil, fmt.Errorf("lmfao: %s already holds durable sharded state; use RecoverShardedSession", dir)
	}
	fact, key, err := resolveShardFact(db, so)
	if err != nil {
		return nil, err
	}
	m := shardManifest{Shards: so.Shards, Fact: fact.Name, Key: key}
	s, err := newDurableSharded(db, m, dopts, dir, func(i int, sdb *Database, sopts DurableOptions) (*DurableSession, error) {
		return NewDurableSession(sdb, queries, opts, sopts, shardDir(dir, i))
	})
	if err != nil {
		return nil, err
	}
	if err := writeManifest(dir, m); err != nil {
		s.Kill()
		return nil, err
	}
	return s, nil
}

// RecoverShardedSession rebuilds a durable sharded session from dir. Like
// RecoverSession, the caller supplies the pristine initial database, query
// batch and options; the manifest's partitioning re-partitions the pristine
// base exactly as creation did, and each shard recovers independently from
// its own checkpoint and log.
func RecoverShardedSession(dir string, db *Database, queries []*Query, opts Options, dopts DurableOptions) (*DurableShardedSession, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	return newDurableSharded(db, m, dopts, dir, func(i int, sdb *Database, sopts DurableOptions) (*DurableSession, error) {
		return RecoverSession(shardDir(dir, i), sdb, queries, opts, sopts)
	})
}

// newDurableSharded partitions db per the manifest and builds the fanout
// over shard i's durable session from mk, with per-shard automatic
// checkpoints off: the fanout coordinates them on the total update count.
func newDurableSharded(db *Database, m shardManifest, dopts DurableOptions, dir string, mk func(int, *Database, DurableOptions) (*DurableSession, error)) (*DurableShardedSession, error) {
	fact := db.Relation(m.Fact)
	if fact == nil {
		return nil, fmt.Errorf("lmfao: manifest fact relation %q not in database — recover with the session's original database", m.Fact)
	}
	dopts = dopts.norm()
	sopts := dopts
	sopts.CheckpointEvery = -1
	s := &DurableShardedSession{dir: dir}
	err := s.init(db, fact, m.Key, m.Shards, func(i int, sdb *Database) (*Session, error) {
		d, err := mk(i, sdb, sopts)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, d)
		return d.sess, nil
	})
	if err != nil {
		return nil, err
	}
	s.durable, s.every = true, dopts.CheckpointEvery
	return s, nil
}

// Shard returns shard i's DurableSession — read it freely; writing through
// it directly would bypass routing and break the partition invariant.
func (s *DurableShardedSession) Shard(i int) *DurableSession { return s.shards[i] }

// Dir returns the durable state directory.
func (s *DurableShardedSession) Dir() string { return s.dir }

// Checkpoint forces one coordinated checkpoint round: every shard
// checkpoints behind all accepted work.
func (s *DurableShardedSession) Checkpoint() error {
	return (<-s.submit(s.perShard(job{ckpt: true}), true)).Err
}

// Kill closes every shard without final checkpoints or log syncs — the
// shutdown of a simulated whole-process crash (testing). Idempotent with
// Close.
func (s *DurableShardedSession) Kill() { s.shutdown(true) }

func writeManifest(dir string, m shardManifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	// Write-tmp / fsync / rename: the rename publishes atomically, but only
	// the Sync guarantees the bytes behind the new name survive a crash —
	// os.WriteFile alone could publish an empty or torn manifest.
	tmp := manifestPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func readManifest(dir string) (shardManifest, error) {
	var m shardManifest
	b, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return m, fmt.Errorf("lmfao: no durable sharded state in %s: %w", dir, err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("lmfao: corrupt shard manifest: %w", err)
	}
	if m.Shards < 1 || m.Fact == "" {
		return m, fmt.Errorf("lmfao: corrupt shard manifest: %+v", m)
	}
	return m, nil
}
