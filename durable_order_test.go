package lmfao

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// The tests below pin the physical side of recovery: a checkpoint records
// each base in its plan order, so a recovered session holds every base
// sorted, and only once — and a checkpoint from before orders were recorded
// (LMFAOCK1, bases in arrival order) recovers to the same rows.

// orderDataset generates a small retailer database; every call returns an
// identical one.
func orderDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	build, err := datagen.ByName("retailer")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := build(datagen.Config{Scale: 0.0003, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// copyCols returns a deep copy of a column block.
func copyCols(cols []Column) []Column {
	out := make([]Column, len(cols))
	for i, c := range cols {
		if c.IsInt() {
			out[i] = IntColumn(slices.Clone(c.Ints))
		} else {
			out[i] = FloatColumn(slices.Clone(c.Floats))
		}
	}
	return out
}

// arrivalStream returns n updates drawn from an arrival-order copy of the
// dataset — a database no session owns, so its rows stay in the order they
// arrived — together with that copy's rows after the first at updates.
// Updates alternate between the fact relation and a dimension. Each deletes
// live rows and inserts them back, with a numeric value changed and once
// unchanged, so the inserts tie on every key with surviving rows.
func arrivalStream(t *testing.T, n, at int) ([]Update, map[string][]Column) {
	t.Helper()
	db := orderDataset(t).DB
	rels := db.Relations()
	fact, dim := rels[0], rels[0]
	for _, r := range rels {
		if r.Len() > fact.Len() {
			fact = r
		}
		if r.Name == "Location" {
			dim = r
		}
	}
	rng := rand.New(rand.NewSource(32))
	var ups []Update
	var rows map[string][]Column
	for i := 0; i < n; i++ {
		if i == at {
			rows = map[string][]Column{}
			for _, r := range rels {
				rows[r.Name] = copyCols(r.Cols)
			}
		}
		rel, k := fact, 24
		if i%2 == 1 {
			rel, k = dim, 2
		}
		idx := make([]int32, 0, k)
		for _, p := range rng.Perm(rel.Len())[:k] {
			idx = append(idx, int32(p))
		}
		del := rel.GatherRows(idx).Cols
		ins := copyCols(del)
		for _, c := range ins {
			if !c.IsInt() {
				for j := 1; j < len(c.Floats); j++ {
					c.Floats[j] += 0.5
				}
				break
			}
		}
		u := Update{Relation: rel.Name, Deletes: del, Inserts: ins}
		if err := db.ApplyDelta(u); err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u)
	}
	return ups, rows
}

// killedAfterCheckpoint runs a durable session over ups — a checkpoint
// behind the first at, the rest in the log only — and kills it. It returns
// the session's directory.
func killedAfterCheckpoint(t *testing.T, queries func(*datagen.Dataset) []*Query, ups []Update, at int) string {
	t.Helper()
	ds := orderDataset(t)
	dir := t.TempDir()
	d, err := NewDurableSession(ds.DB, queries(ds), DefaultOptions(), DurableOptions{CheckpointEvery: -1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(ups[:at]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(ups[at:]...); err != nil {
		t.Fatal(err)
	}
	return dir
}

// uninterrupted runs a plain session over ups.
func uninterrupted(t *testing.T, queries func(*datagen.Dataset) []*Query, ups []Update) *Session {
	t.Helper()
	ds := orderDataset(t)
	s, err := NewSession(ds.DB, queries(ds), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(ups...); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkRecovered requires got to equal the uninterrupted twin want, bit for
// bit: version vector, every materialized view, and every base relation's
// rows in their physical order. Each base of a plain join-tree node must be
// sorted by its plan order, with no sorted copy of it held for that order.
func checkRecovered(t *testing.T, got, want *Session) {
	t.Helper()
	gh, wh := got.Head(), want.Head()
	if !gh.VersionVector().Equal(wh.VersionVector()) {
		t.Fatalf("version vector %v, want %v", gh.VersionVector(), wh.VersionVector())
	}
	gm, wm := gh.Batch().Materialized, wh.Batch().Materialized
	if len(gm) != len(wm) {
		t.Fatalf("%d materialized views, want %d", len(gm), len(wm))
	}
	for i := range wm {
		if (gm[i] == nil) != (wm[i] == nil) || gm[i] != nil && string(gm[i].AppendBinary(nil)) != string(wm[i].AppendBinary(nil)) {
			t.Fatalf("view %d differs from the uninterrupted twin", i)
		}
	}
	for _, rel := range got.Engine().DB().Relations() {
		twin := want.Engine().DB().Relation(rel.Name)
		if !slices.Equal(rel.SortOrder(), twin.SortOrder()) || !blocksIdentical(rel.Cols, twin.Cols) {
			t.Fatalf("relation %q: recovered rows (order %v) differ from the twin's (order %v)", rel.Name, rel.SortOrder(), twin.SortOrder())
		}
	}
	plan := gh.Batch().Plan
	for _, n := range got.Engine().Tree().Nodes {
		if n.IsBag() {
			continue
		}
		if order := plan.AttrOrder[n.ID]; !n.Rel.SortedBy(order) {
			t.Fatalf("relation %q is sorted by %v, not its plan order %v", n.Rel.Name, n.Rel.SortOrder(), order)
		}
		for _, o := range moo.SortedCopyOrders(got.Engine(), n.Rel) {
			if n.Rel.SortedBy(o) {
				t.Fatalf("relation %q: the engine holds a sorted copy in %v, an order the base has", n.Rel.Name, o)
			}
		}
	}
}

func blocksIdentical(a, b []Column) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsInt() != b[i].IsInt() || a[i].Len() != b[i].Len() {
			return false
		}
		if a[i].IsInt() {
			if !slices.Equal(a[i].Ints, b[i].Ints) {
				return false
			}
			continue
		}
		for j, v := range a[i].Floats {
			if math.Float64bits(v) != math.Float64bits(b[i].Floats[j]) {
				return false
			}
		}
	}
	return true
}

// TestRecoverySortsNothing recovers from an LMFAOCK2 checkpoint plus a log
// suffix: every plain node's base comes back sorted in its plan order, the
// engine holds no copy of it in that order, and the state equals an
// uninterrupted twin's.
func TestRecoverySortsNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries func(*datagen.Dataset) []*Query
	}{
		{"covar", workloads.CovarMatrix},
		{"cube", workloads.DataCube},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ups, _ := arrivalStream(t, 6, 4)
			dir := killedAfterCheckpoint(t, tc.queries, ups, 4)
			ck, err := wal.LatestCheckpoint(ckptDir(dir))
			if err != nil || ck == nil || ck.LSN != 4 {
				t.Fatalf("newest checkpoint %v, %v; want one at LSN 4", ck, err)
			}
			sorted := 0
			for _, rs := range ck.Relations {
				if len(rs.Order) > 0 {
					sorted++
				}
			}
			if sorted == 0 {
				t.Fatal("the checkpoint records no sort order")
			}
			ds := orderDataset(t)
			rec, err := RecoverSession(dir, ds.DB, tc.queries(ds), DefaultOptions(), DurableOptions{CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Kill()
			checkRecovered(t, rec.Session(), uninterrupted(t, tc.queries, ups))
		})
	}
}

// writeCheckpointV1 overwrites path with ck in the LMFAOCK1 layout: magic,
// u32le payload length, u32le CRC-32C, then a payload that records no sort
// orders.
func writeCheckpointV1(t *testing.T, path string, ck *wal.Checkpoint) {
	t.Helper()
	block := func(p []byte, cols []Column) []byte {
		p = binary.AppendUvarint(p, uint64(len(cols)))
		if len(cols) == 0 {
			return p
		}
		p = binary.AppendUvarint(p, uint64(cols[0].Len()))
		for _, c := range cols {
			if c.IsInt() {
				p = append(p, 0)
				for _, v := range c.Ints {
					p = binary.LittleEndian.AppendUint64(p, uint64(v))
				}
			} else {
				p = append(p, 1)
				for _, v := range c.Floats {
					p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
				}
			}
		}
		return p
	}
	str := func(p []byte, s string) []byte { return append(binary.AppendUvarint(p, uint64(len(s))), s...) }
	var p []byte
	p = binary.AppendUvarint(p, ck.LSN)
	names := make([]string, 0, len(ck.Versions))
	for name := range ck.Versions {
		names = append(names, name)
	}
	sort.Strings(names)
	p = binary.AppendUvarint(p, uint64(len(names)))
	for _, name := range names {
		p = binary.AppendUvarint(str(p, name), uint64(ck.Versions[name]))
	}
	p = binary.AppendUvarint(p, uint64(len(ck.Relations)))
	for _, rs := range ck.Relations {
		p = block(binary.AppendUvarint(str(p, rs.Name), uint64(rs.Version)), rs.Cols)
	}
	p = binary.AppendUvarint(p, uint64(len(ck.Views)))
	for _, v := range ck.Views {
		if v == nil {
			p = append(p, 0)
			continue
		}
		p = v.AppendBinary(append(p, 1))
	}
	b := []byte("LMFAOCK1")
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, append(b, p...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// newestCheckpoint returns the path of dir's newest checkpoint file.
func newestCheckpoint(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(ckptDir(dir), "ckpt-*.ckpt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checkpoint under %s: %v", dir, err)
	}
	slices.Sort(paths)
	return paths[len(paths)-1]
}

// TestRecoverFromV1Checkpoint recovers from a checkpoint in the LMFAOCK1
// layout, whose bases are in arrival order, as sessions kept them before
// they sorted their bases: recovery sorts each base once, and the state —
// rows in their physical order included — equals an uninterrupted twin's.
func TestRecoverFromV1Checkpoint(t *testing.T) {
	queries := workloads.CovarMatrix
	ups, arrival := arrivalStream(t, 6, 4)
	dir := killedAfterCheckpoint(t, queries, ups, 4)
	path := newestCheckpoint(t, dir)
	ck, err := wal.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range ck.Relations {
		cols, ok := arrival[rs.Name]
		if !ok {
			t.Fatalf("no arrival-order rows of %q", rs.Name)
		}
		ck.Relations[i].Cols, ck.Relations[i].Order = cols, nil
	}
	writeCheckpointV1(t, path, ck)
	if b, err := os.ReadFile(path); err != nil || !strings.HasPrefix(string(b), "LMFAOCK1") {
		t.Fatalf("rewritten checkpoint: %v", err)
	}
	ds := orderDataset(t)
	rec, err := RecoverSession(dir, ds.DB, queries(ds), DefaultOptions(), DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Kill()
	checkRecovered(t, rec.Session(), uninterrupted(t, queries, ups))
}

// TestRecoverRejectsBadOrder: an LMFAOCK2 checkpoint whose rows violate the
// order it records, or whose order names an attribute the relation lacks or
// a numeric one, fails recovery with an error instead of restoring.
func TestRecoverRejectsBadOrder(t *testing.T) {
	queries := workloads.CovarMatrix
	ups, _ := arrivalStream(t, 2, 1)
	for _, tc := range []struct {
		name   string
		breaks func(ds *datagen.Dataset, rs *wal.RelationState)
	}{
		{"rows out of order", func(_ *datagen.Dataset, rs *wal.RelationState) {
			// Move the last row to the front: it sorts after the first.
			for _, c := range rs.Cols {
				if c.IsInt() {
					n := len(c.Ints)
					last := c.Ints[n-1]
					copy(c.Ints[1:], c.Ints[:n-1])
					c.Ints[0] = last
				} else {
					n := len(c.Floats)
					last := c.Floats[n-1]
					copy(c.Floats[1:], c.Floats[:n-1])
					c.Floats[0] = last
				}
			}
		}},
		{"missing attribute", func(ds *datagen.Dataset, rs *wal.RelationState) {
			rel := ds.DB.Relation(rs.Name)
			for id := AttrID(0); int(id) < ds.DB.NumAttrs(); id++ {
				if !rel.HasAttr(id) {
					rs.Order = append(rs.Order, id)
					return
				}
			}
		}},
		{"numeric attribute", func(ds *datagen.Dataset, rs *wal.RelationState) {
			rel := ds.DB.Relation(rs.Name)
			for i, c := range rel.Cols {
				if !c.IsInt() {
					rs.Order = append(rs.Order, rel.Attrs[i])
					return
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := killedAfterCheckpoint(t, queries, ups, 1)
			path := newestCheckpoint(t, dir)
			ck, err := wal.ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			ds := orderDataset(t)
			broken := false
			for i := range ck.Relations {
				rs := &ck.Relations[i]
				if len(rs.Order) > 0 && len(rs.Cols) > 0 && rs.Cols[0].Len() > 1 {
					tc.breaks(ds, rs)
					broken = true
					break
				}
			}
			if !broken {
				t.Fatal("no sorted relation to break")
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteCheckpoint(ckptDir(dir), ck, false); err != nil {
				t.Fatal(err)
			}
			rec, err := RecoverSession(dir, ds.DB, queries(ds), DefaultOptions(), DurableOptions{CheckpointEvery: -1})
			if err == nil {
				rec.Kill()
				t.Fatal("recovery restored a checkpoint that violates its recorded order")
			}
		})
	}
}

// TestRecoveryKeepsRecordedOrder: recovery installs a checkpoint's rows in
// the order the checkpoint records, without sorting them again. A relation
// is rewritten sorted by a refinement of its plan order (one more
// attribute): a recovery that re-sorted by the plan order would lose it.
func TestRecoveryKeepsRecordedOrder(t *testing.T) {
	queries := workloads.Count
	ups, _ := arrivalStream(t, 2, 1)
	dir := killedAfterCheckpoint(t, queries, ups, len(ups))
	path := newestCheckpoint(t, dir)
	ck, err := wal.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ds := orderDataset(t)
	var rel, tmp *Relation
	var refined []AttrID
	for i := range ck.Relations {
		rs := &ck.Relations[i]
		rel = ds.DB.Relation(rs.Name)
		refined = slices.Clone(rs.Order)
		for j, a := range rel.Attrs {
			if rel.Cols[j].IsInt() && !slices.Contains(refined, a) {
				refined = append(refined, a)
				break
			}
		}
		if len(rs.Order) == 0 || len(refined) == len(rs.Order) {
			continue
		}
		tmp = NewRelation(rs.Name, rel.Attrs, rs.Cols)
		if err := tmp.SortBy(refined); err != nil {
			t.Fatal(err)
		}
		rs.Cols, rs.Order = tmp.Cols, refined
		break
	}
	if tmp == nil {
		t.Fatal("no relation whose order can be refined")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteCheckpoint(ckptDir(dir), ck, false); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverSession(dir, ds.DB, queries(ds), DefaultOptions(), DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Kill()
	if got := rel.SortOrder(); !slices.Equal(got, refined) {
		t.Fatalf("recovered %q is sorted by %v, want the recorded %v", rel.Name, got, refined)
	}
	if !blocksIdentical(rel.Cols, tmp.Cols) {
		t.Fatalf("recovered %q rows differ from the checkpoint's", rel.Name)
	}
}

// tieDB returns a one-relation database F(a, b, x) whose rows all tie on b,
// with values of x whose float sum depends on the order they are added in.
// Every call returns an identical one.
func tieDB(t *testing.T) (db *Database, a, b, x AttrID) {
	t.Helper()
	db = NewDatabase()
	a, b, x = db.Attr("a", Key), db.Attr("b", Key), db.Attr("x", Numeric)
	if err := db.AddRelation(NewRelation("F", []AttrID{a, b, x},
		[]Column{IntColumn([]int64{2, 3}), IntColumn([]int64{1, 1}), FloatColumn([]float64{1e16, -1e16})})); err != nil {
		t.Fatal(err)
	}
	return db, a, b, x
}

// TestRecoveryTieOrderOfOtherCopies recovers a session whose ad-hoc requery
// scans its base in an order other than the base's own. The uninterrupted
// session brings its copy in that order forward through an insert that ties
// with every row on the copy's order but sorts first in the base; the
// recovered session builds the copy fresh. Both must sum the tied rows in
// the same order, so the requery agrees bit for bit.
func TestRecoveryTieOrderOfOtherCopies(t *testing.T) {
	dir := t.TempDir()
	db, a, b, x := tieDB(t)
	queries := []*Query{NewQuery("bya", []AttrID{a}, Sum(x))}
	adhoc := []*Query{NewQuery("byb", []AttrID{b}, Sum(x))}
	d, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{CheckpointEvery: -1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("F")
	if !rel.SortedBy([]AttrID{a}) || rel.SortedBy([]AttrID{b}) {
		t.Fatalf("base sorted by %v; the test needs it sorted by a, not b", rel.SortOrder())
	}
	// The first requery builds F's copy in order b; the insert patches it.
	if _, err := d.Session().Head().Requery(adhoc); err != nil {
		t.Fatal(err)
	}
	if len(moo.SortedCopyOrders(d.Engine(), rel)) == 0 {
		t.Fatal("the requery read no sorted copy of F")
	}
	ins := InsertRows("F", IntColumn([]int64{1}), IntColumn([]int64{1}), FloatColumn([]float64{1}))
	if _, err := d.Apply(ins); err != nil {
		t.Fatal(err)
	}
	want, err := d.Session().Head().Requery(adhoc)
	if err != nil {
		t.Fatal(err)
	}
	d.Kill()

	db, _, _, _ = tieDB(t)
	rec, err := RecoverSession(dir, db, queries, DefaultOptions(), DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Kill()
	got, err := rec.Session().Head().Requery(adhoc)
	if err != nil {
		t.Fatal(err)
	}
	g, w := got[0].Val(0, 0), want[0].Val(0, 0)
	if math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("recovered requery sums to %v, the uninterrupted session's to %v", g, w)
	}
}
