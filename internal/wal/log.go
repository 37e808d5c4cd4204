package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/data"
)

// segment is one on-disk log file. firstLSN (from the filename) is the LSN
// the segment's first record would carry; validBytes is the length of its
// committed prefix as established by Open's scan and extended by appends.
type segment struct {
	path       string
	firstLSN   uint64
	validBytes int64
}

// Log is a single-writer, global-ordered write-ahead log of base-relation
// deltas. All mutating methods (Append, Sync, Close, Abort) must be called
// from one goroutine — the logged session shard's writer; LastLSN and
// CrashAfterAppends are safe from any goroutine.
type Log struct {
	dir  string
	opts Options

	segs      []segment
	f         *os.File
	lsn       uint64
	lastLSN   atomic.Uint64
	segBytes  int64
	sinceSync int
	buf       []byte

	// failAfter is the injected-crash countdown: the append that finds it at
	// zero writes a torn frame prefix and wedges the log. Negative = armed
	// off.
	failAfter atomic.Int64
	wedged    error
}

const segSuffix = ".wal"

func segName(firstLSN uint64) string {
	return fmt.Sprintf("seg-%016x%s", firstLSN, segSuffix)
}

// Open opens (or creates) the log in dir. It scans every segment in LSN
// order, validating frames and strictly ascending LSNs; at the first invalid
// or torn record it truncates that segment to its committed prefix and
// deletes all later segments, so the log resumes exactly from its last
// committed state. An empty or missing dir yields a fresh log whose first
// record will carry LSN 1.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.norm()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.failAfter.Store(-1)
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		seg := &segs[i]
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		off, last, ok := validPrefix(b, l.lsn)
		seg.validBytes = int64(off)
		l.lsn = last
		l.segs = append(l.segs, *seg)
		if !ok || off < len(b) {
			// Torn or corrupt tail: cut this segment to its committed
			// prefix and drop everything after it.
			if err := os.Truncate(seg.path, seg.validBytes); err != nil {
				return nil, err
			}
			for _, later := range segs[i+1:] {
				if err := os.Remove(later.path); err != nil {
					return nil, err
				}
			}
			break
		}
	}
	if len(l.segs) == 0 {
		if err := l.newSegment(l.lsn + 1); err != nil {
			return nil, err
		}
	} else {
		active := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
		l.segBytes = active.validBytes
	}
	l.lastLSN.Store(l.lsn)
	return l, nil
}

// scanSegments lists dir's segment files sorted by their first LSN.
func scanSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segSuffix), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// validPrefix scans b for its longest valid record prefix: records must
// decode cleanly and carry LSNs strictly greater than prev (gaps are legal —
// an unsynced tail can be lost while a checkpoint still covers its LSNs).
// It returns the prefix length in bytes, the last LSN seen, and whether the
// whole buffer validated.
func validPrefix(b []byte, prev uint64) (off int, last uint64, ok bool) {
	last = prev
	for off < len(b) {
		rec, n, err := DecodeRecord(b[off:])
		if err != nil || rec.LSN <= last {
			return off, last, false
		}
		last = rec.LSN
		off += n
	}
	return off, last, true
}

func (l *Log) newSegment(firstLSN uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = append(l.segs, segment{path: path, firstLSN: firstLSN})
	l.segBytes = 0
	return nil
}

// Append frames d as the next record, writes it to the active segment and
// fsyncs per the SyncEvery policy, returning the record's LSN. Once an
// append fails — an injected crash or a real I/O error — the log is wedged:
// the record is not committed and every later operation returns the same
// error.
func (l *Log) Append(d data.Delta) (uint64, error) {
	if l.wedged != nil {
		return 0, l.wedged
	}
	if err := validDelta(d); err != nil {
		return 0, err
	}
	l.buf = AppendRecord(l.buf[:0], Record{LSN: l.lsn + 1, Delta: d})
	if n := l.failAfter.Load(); n >= 0 {
		if n == 0 {
			// Injected crash mid-append: leave a torn frame prefix on disk,
			// exactly what a process death between write and completion
			// leaves behind, then wedge.
			torn := l.buf[:max(1, len(l.buf)/2)]
			_, _ = l.f.Write(torn)
			_ = l.f.Sync()
			l.wedged = ErrInjectedCrash
			return 0, ErrInjectedCrash
		}
		l.failAfter.Store(n - 1)
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.newSegment(l.lsn + 1); err != nil {
			l.wedged = err
			return 0, err
		}
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.wedged = err
		return 0, err
	}
	l.lsn++
	l.lastLSN.Store(l.lsn)
	l.segBytes += int64(len(l.buf))
	l.segs[len(l.segs)-1].validBytes += int64(len(l.buf))
	l.sinceSync++
	if l.sinceSync >= l.opts.SyncEvery {
		if err := l.f.Sync(); err != nil {
			l.wedged = err
			return 0, err
		}
		l.sinceSync = 0
	}
	return l.lsn, nil
}

// Sync fsyncs the active segment, making every appended record durable.
func (l *Log) Sync() error {
	if l.wedged != nil {
		return l.wedged
	}
	if l.sinceSync == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.wedged = err
		return err
	}
	l.sinceSync = 0
	return nil
}

// LastLSN returns the LSN of the last committed record (0 if none). Safe
// from any goroutine.
func (l *Log) LastLSN() uint64 { return l.lastLSN.Load() }

// AdvanceLSN raises the next-LSN watermark so future appends are numbered
// after `to`. Recovery calls it with the checkpoint LSN: a checkpoint can
// cover records whose log tail was lost, and their LSNs must not be reused.
func (l *Log) AdvanceLSN(to uint64) {
	if to > l.lsn {
		l.lsn = to
		l.lastLSN.Store(to)
	}
}

// Replay invokes fn for every committed record with LSN > after, in log
// order, stopping at fn's first error.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	for _, seg := range l.segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		if int64(len(b)) > seg.validBytes {
			b = b[:seg.validBytes]
		}
		off := 0
		for off < len(b) {
			rec, n, err := DecodeRecord(b[off:])
			if err != nil {
				return fmt.Errorf("wal: replay of committed prefix failed: %w", err)
			}
			off += n
			if rec.LSN <= after {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// CrashAfterAppends arms the injected-crash failpoint: the next n appends
// succeed, then the following one writes a torn frame prefix and wedges the
// log with ErrInjectedCrash. Safe from any goroutine; testing only.
func (l *Log) CrashAfterAppends(n int) {
	l.failAfter.Store(int64(n))
}

// Close syncs the active segment and closes it. The wedged error, if any,
// is returned but the file is closed regardless.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the active segment WITHOUT a final sync — the shutdown path
// of a simulated crash (lmfao.Session.Kill), leaving on disk only what the
// sync policy already committed.
func (l *Log) Abort() error {
	return l.f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
