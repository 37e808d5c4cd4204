package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/wire"
)

// Checkpoint is a durable snapshot of a maintained session's full state as
// of a specific log position: base-relation contents and mutation counters,
// the materialized view DAG, and the ivm.VersionVector the views reflect.
// Recovery restores the newest valid checkpoint and replays only the log
// records with LSN > Checkpoint.LSN.
type Checkpoint struct {
	// LSN is the last log record the state reflects (0 = initial Run only).
	LSN uint64
	// Versions is the version vector the views are consistent with.
	Versions ivm.VersionVector
	// Relations holds every base relation's rows and mutation counter.
	Relations []RelationState
	// Views is the materialized view DAG indexed by plan view ID; nil
	// entries are views the plan never materializes.
	Views []*moo.ViewData
}

// RelationState is one base relation's checkpointed contents.
type RelationState struct {
	Name    string
	Version int64
	// Order is the attribute order the rows are sorted by, nil for none
	// (and for every relation of an LMFAOCK1 checkpoint).
	Order []data.AttrID
	Cols  []data.Column
}

// Checkpoint file layout: 8-byte magic "LMFAOCK2", u64le payload length,
// u32le CRC-32C of the payload, payload. The payload records each
// relation's sort order before its rows. Files written before orders were
// recorded (magic "LMFAOCK1", u32le payload length, no orders) still
// decode, with every Order nil.
//
// A file is streamed to a .tmp name behind a zeroed header slot, through
// one chunk buffer that is checksummed as each chunk leaves; the header is
// written over the slot last, then the file is fsynced and renamed into
// place (then the directory is fsynced). A crash mid-write leaves either
// no checkpoint or a stale .tmp that recovery ignores, and a .tmp whose
// header was never written has no magic, so it could not be mistaken for a
// checkpoint even under the right name.
const (
	ckptMagic   = "LMFAOCK2"
	ckptMagicV1 = "LMFAOCK1"
	ckptHeader  = len(ckptMagic) + 8 + 4
	ckptSuffix  = ".ckpt"
	tmpSuffix   = ".tmp"
)

func ckptName(lsn uint64) string {
	return fmt.Sprintf("ckpt-%016x%s", lsn, ckptSuffix)
}

// WriteCheckpoint durably writes ck into dir and returns once the file is
// renamed into place and the directory synced. With failBeforeSync set
// (the injected crash point for recovery testing) the bytes are written
// but neither fsynced nor renamed into place — exactly the state a crash
// between write and commit leaves — and ErrInjectedCrash is returned.
func WriteCheckpoint(dir string, ck *Checkpoint, failBeforeSync bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, ckptName(ck.LSN)+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := streamCheckpoint(f, ck); err != nil {
		f.Close()
		return err
	}
	if failBeforeSync {
		f.Close()
		return ErrInjectedCrash
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckptName(ck.LSN))); err != nil {
		return err
	}
	return syncDir(dir)
}

// streamCheckpoint writes ck's file encoding to f: a zeroed header slot,
// the payload through a streaming Writer whose sink checksums each chunk
// on its way out, then the header over the slot.
func streamCheckpoint(f *os.File, ck *Checkpoint) error {
	var hdr [ckptHeader]byte
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	sink := &checksumSink{f: f}
	w := wire.NewStream(sink)
	encodeCheckpoint(w, ck)
	if err := w.Flush(); err != nil {
		return err
	}
	putHeader(hdr[:], sink.n, sink.crc)
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// checksumSink passes a checkpoint's payload chunks to its file, folding
// each into the length and CRC-32C that the header records.
type checksumSink struct {
	f   *os.File
	n   uint64
	crc uint32
}

func (s *checksumSink) Write(p []byte) (int, error) {
	s.n += uint64(len(p))
	s.crc = crc32.Update(s.crc, castagnoli, p)
	return s.f.Write(p)
}

// putHeader fills an LMFAOCK2 header: magic, payload length, checksum.
func putHeader(hdr []byte, n uint64, sum uint32) {
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint64(hdr[len(ckptMagic):], n)
	binary.LittleEndian.PutUint32(hdr[len(ckptMagic)+8:], sum)
}

// LatestCheckpoint returns the newest checkpoint in dir that validates
// (magic, length, checksum, payload structure), or nil if none does.
// Invalid or torn checkpoint files are skipped, never trusted.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	lsns, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for i := len(lsns) - 1; i >= 0; i-- {
		ck, err := ReadCheckpoint(filepath.Join(dir, ckptName(lsns[i])))
		if err == nil {
			return ck, nil
		}
	}
	return nil, nil
}

// listCheckpoints returns the LSNs of dir's checkpoint files in ascending
// order. A missing directory yields an empty list.
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ckptSuffix), 16, 64)
		if err != nil {
			continue
		}
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// ReadCheckpoint reads and validates one checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpointFile(b)
}

// decodeCheckpointFile validates and decodes a checkpoint file of either
// layout: magic, payload length and checksum, then the payload. Bytes
// behind the payload are ignored.
func decodeCheckpointFile(b []byte) (*Checkpoint, error) {
	if len(b) < len(ckptMagic) {
		return nil, ErrCorrupt
	}
	magic, b := string(b[:len(ckptMagic)]), b[len(ckptMagic):]
	var n uint64
	switch {
	case magic == ckptMagic && len(b) >= 12:
		n, b = binary.LittleEndian.Uint64(b), b[8:]
	case magic == ckptMagicV1 && len(b) >= 8:
		n, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
	default:
		return nil, ErrCorrupt
	}
	sum, b := binary.LittleEndian.Uint32(b), b[4:]
	if uint64(len(b)) < n {
		return nil, ErrTruncated
	}
	payload := b[:n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, ErrChecksum
	}
	return decodeCheckpoint(payload, magic == ckptMagic)
}

// PruneCheckpoints removes stale .tmp entries and all but the keep newest
// checkpoint files from dir. It removes everything it can: an entry it
// cannot remove is skipped, and the joined errors of all such entries are
// returned once the rest are gone.
func PruneCheckpoints(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			errs = append(errs, os.Remove(filepath.Join(dir, e.Name())))
		}
	}
	lsns, err := listCheckpoints(dir)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	for _, lsn := range lsns[:max(0, len(lsns)-max(keep, 1))] {
		errs = append(errs, os.Remove(filepath.Join(dir, ckptName(lsn))))
	}
	return errors.Join(errs...)
}

// encodeCheckpoint writes ck's payload encoding to w. Version-vector
// entries are written in sorted name order so encoding is deterministic.
func encodeCheckpoint(w *wire.Writer, ck *Checkpoint) {
	w.Uvarint(ck.LSN)
	names := make([]string, 0, len(ck.Versions))
	for name := range ck.Versions {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.String(name)
		w.Uvarint(uint64(ck.Versions[name]))
	}
	w.Uvarint(uint64(len(ck.Relations)))
	for _, rs := range ck.Relations {
		w.String(rs.Name)
		w.Uvarint(uint64(rs.Version))
		w.Uvarint(uint64(len(rs.Order)))
		for _, a := range rs.Order {
			w.Uvarint(uint64(a))
		}
		writeBlock(w, rs.Cols)
	}
	w.Uvarint(uint64(len(ck.Views)))
	for _, v := range ck.Views {
		if v == nil {
			w.Byte(0)
			continue
		}
		w.Byte(1)
		v.Encode(w)
	}
}

// decodeCheckpoint decodes a payload; withOrders tells an LMFAOCK2 payload,
// which records each relation's sort order, from an LMFAOCK1 one.
func decodeCheckpoint(p []byte, withOrders bool) (*Checkpoint, error) {
	ck := &Checkpoint{}
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	p = p[n:]
	ck.LSN = lsn

	nver, n := binary.Uvarint(p)
	if n <= 0 || nver > uint64(len(p)) {
		return nil, ErrCorrupt
	}
	p = p[n:]
	ck.Versions = make(ivm.VersionVector, nver)
	for i := uint64(0); i < nver; i++ {
		name, rest, err := decodeString(p)
		if err != nil {
			return nil, err
		}
		ver, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		p = rest[n:]
		ck.Versions[name] = int64(ver)
	}

	nrel, n := binary.Uvarint(p)
	if n <= 0 || nrel > uint64(len(p)) {
		return nil, ErrCorrupt
	}
	p = p[n:]
	ck.Relations = make([]RelationState, 0, nrel)
	for i := uint64(0); i < nrel; i++ {
		var rs RelationState
		var err error
		if rs.Name, p, err = decodeString(p); err != nil {
			return nil, err
		}
		ver, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		p = p[n:]
		rs.Version = int64(ver)
		if withOrders {
			if rs.Order, p, err = decodeOrder(p); err != nil {
				return nil, err
			}
		}
		if rs.Cols, p, err = decodeBlock(p); err != nil {
			return nil, err
		}
		ck.Relations = append(ck.Relations, rs)
	}

	nviews, n := binary.Uvarint(p)
	if n <= 0 || nviews > uint64(len(p)) {
		return nil, ErrCorrupt
	}
	p = p[n:]
	ck.Views = make([]*moo.ViewData, nviews)
	for i := range ck.Views {
		if len(p) == 0 {
			return nil, ErrCorrupt
		}
		present := p[0]
		p = p[1:]
		if present == 0 {
			continue
		}
		if present != 1 {
			return nil, ErrCorrupt
		}
		v, used, err := moo.DecodeViewData(p)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint view %d: %w", i, err)
		}
		ck.Views[i] = v
		p = p[used:]
	}
	if len(p) != 0 {
		return nil, ErrCorrupt
	}
	return ck, nil
}

// decodeOrder decodes a relation's sort order: a count, then that many
// attribute IDs. An empty order decodes as nil.
func decodeOrder(p []byte) ([]data.AttrID, []byte, error) {
	k, n := binary.Uvarint(p)
	if n <= 0 || k > uint64(len(p)-n) {
		return nil, nil, ErrCorrupt
	}
	p = p[n:]
	if k == 0 {
		return nil, p, nil
	}
	order := make([]data.AttrID, k)
	for i := range order {
		a, n := binary.Uvarint(p)
		if n <= 0 || a > math.MaxInt32 {
			return nil, nil, ErrCorrupt
		}
		order[i] = data.AttrID(a)
		p = p[n:]
	}
	return order, p, nil
}

func decodeString(b []byte) (string, []byte, error) {
	sl, n := binary.Uvarint(b)
	if n <= 0 || sl > uint64(len(b)-n) {
		return "", nil, ErrCorrupt
	}
	return string(b[n : n+int(sl)]), b[n+int(sl):], nil
}
