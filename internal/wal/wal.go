// Package wal is the durability layer: a global-ordered write-ahead log of
// base-relation deltas plus periodic checkpoints of the maintained state,
// giving sessions crash recovery without re-ingesting history.
//
// The log is a sequence of segment files of length-prefixed, CRC-32C
// checksummed records, each carrying one data.Delta tagged with a
// monotonically increasing log sequence number (LSN). Appends are fsynced
// per a configurable policy (every commit by default) and segments rotate at
// a size bound. A checkpoint durably snapshots the session's full state —
// base-relation contents and versions, the materialized view DAG, and the
// ivm.VersionVector it reflects — through a specific LSN, streamed to a
// temporary file through one bounded chunk buffer (internal/wire, the
// encoder records use too) and atomically renamed so a half-written
// checkpoint is never mistaken for a valid one.
//
// Recovery is checkpoint-plus-suffix: load the newest checkpoint that
// validates, then replay the log records with larger LSNs through the normal
// maintenance path (lmfao.RecoverSession). Open validates the record stream
// and truncates everything from the first invalid record onward — a torn
// tail from a crash mid-append, or a record whose checksum no longer
// matches — so a recovered log always resumes from its last committed
// prefix.
//
// The writer carries injectable crash points (Log.CrashAfterAppends, the
// failBeforeSync flag of WriteCheckpoint) so the kill-and-recover oracle in
// internal/oracletest can stop it at arbitrary, adversarial moments: after N
// records with the next one torn mid-frame, or after a checkpoint's bytes
// are written but before they are fsynced and committed.
package wal

import "errors"

// Errors reported by the record codec and the log writer. Decode errors
// distinguish an incomplete frame (ErrTruncated — the committed prefix ends
// here) from a complete frame whose payload fails its checksum
// (ErrChecksum) and from structurally invalid payloads (ErrCorrupt);
// recovery treats all three as the end of the committed prefix.
var (
	// ErrTruncated marks an incomplete record frame (a torn tail).
	ErrTruncated = errors.New("wal: truncated record")
	// ErrChecksum marks a complete frame whose payload checksum mismatches.
	ErrChecksum = errors.New("wal: record checksum mismatch")
	// ErrCorrupt marks a structurally invalid record or checkpoint payload.
	ErrCorrupt = errors.New("wal: corrupt data")
	// ErrInjectedCrash is returned by armed crash points (testing): the
	// writer behaves as if the process died at that instant — partial bytes
	// may be on disk, and every later operation fails with the same error.
	ErrInjectedCrash = errors.New("wal: injected crash")
)

// Options configure a Log.
type Options struct {
	// SegmentBytes rotates the active segment once its size reaches this
	// bound (default DefaultSegmentBytes). Rotation syncs and closes the old
	// segment; a record never spans segments.
	SegmentBytes int64
	// SyncEvery fsyncs the active segment every Nth append. 1 (the default)
	// is fsync-on-commit: every Append is durable when it returns. Larger
	// values trade the durability of up to N-1 trailing appends for
	// throughput; checkpoints always sync the log first, so a checkpoint
	// never covers records that could still be lost.
	SyncEvery int
}

// DefaultSegmentBytes is the segment rotation bound used when
// Options.SegmentBytes is unset.
const DefaultSegmentBytes = 4 << 20

func (o Options) norm() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery < 1 {
		o.SyncEvery = 1
	}
	return o
}
