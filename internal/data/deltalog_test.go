package data

import "testing"

func deltaLogFixture(t *testing.T) *Relation {
	t.Helper()
	db := NewDatabase()
	k := db.Attr("k", Key)
	rel := NewRelation("R", []AttrID{k}, []Column{NewIntColumn([]int64{0})})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	return rel
}

func appendOne(t *testing.T, rel *Relation, v int64) {
	t.Helper()
	if err := rel.Append([]Column{NewIntColumn([]int64{v})}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaLogGapDetection pins the documented contract: DeltaLog(since) is
// complete iff since >= DeltaLogTruncatedThrough(), both under explicit
// TruncateDeltaLog and under the retention cap.
func TestDeltaLogGapDetection(t *testing.T) {
	rel := deltaLogFixture(t)
	for i := int64(1); i <= 5; i++ {
		appendOne(t, rel, i)
	}
	if got := rel.DeltaLogTruncatedThrough(); got != 0 {
		t.Fatalf("fresh log: truncatedThrough = %d, want 0", got)
	}
	if got := len(rel.DeltaLog(0)); got != 5 {
		t.Fatalf("full log: %d entries, want 5", got)
	}

	// Explicit truncation: entries Seq <= 3 evicted.
	rel.TruncateDeltaLog(3)
	if got := rel.DeltaLogTruncatedThrough(); got != 3 {
		t.Fatalf("after truncate(3): truncatedThrough = %d, want 3", got)
	}
	// A consumer resumed from since=1 gets a silently gapped log (entries
	// 2,3 are gone) and must detect it via the high-water mark.
	gapped := rel.DeltaLog(1)
	if len(gapped) != 2 || gapped[0].Seq != 4 {
		t.Fatalf("DeltaLog(1) after truncation: got %d entries, first seq %d", len(gapped), gapped[0].Seq)
	}
	if since := int64(1); since >= rel.DeltaLogTruncatedThrough() {
		t.Fatal("since=1 must be detected as gapped")
	}
	// A consumer resumed from since=3 (or later) is complete.
	if since := int64(3); since < rel.DeltaLogTruncatedThrough() {
		t.Fatal("since=3 must be complete")
	}
	if got := rel.DeltaLog(3); len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("DeltaLog(3): got %v entries", len(got))
	}

	// Idempotent / non-regressing high-water mark.
	rel.TruncateDeltaLog(2)
	if got := rel.DeltaLogTruncatedThrough(); got != 3 {
		t.Fatalf("truncate(2) after truncate(3): truncatedThrough = %d, want 3", got)
	}
}

// TestDeltaLogRetentionCap verifies the default cap evicts oldest-first and
// records the eviction in DeltaLogTruncatedThrough.
func TestDeltaLogRetentionCap(t *testing.T) {
	rel := deltaLogFixture(t)
	if got := rel.DeltaLogCap(); got != DefaultDeltaLogCap {
		t.Fatalf("unconfigured cap = %d, want DefaultDeltaLogCap %d", got, DefaultDeltaLogCap)
	}
	total := DefaultDeltaLogCap + 7
	for i := 0; i < total; i++ {
		appendOne(t, rel, int64(i))
	}
	log := rel.DeltaLog(0)
	if len(log) != DefaultDeltaLogCap {
		t.Fatalf("retained %d entries, want %d", len(log), DefaultDeltaLogCap)
	}
	wantFirst := int64(total - DefaultDeltaLogCap + 1)
	if log[0].Seq != wantFirst {
		t.Fatalf("oldest retained Seq = %d, want %d", log[0].Seq, wantFirst)
	}
	if got, want := rel.DeltaLogTruncatedThrough(), wantFirst-1; got != want {
		t.Fatalf("truncatedThrough = %d, want %d", got, want)
	}
	// Seqs are consecutive: DeltaLog(truncatedThrough) is exactly the
	// retained suffix with no gap.
	resumed := rel.DeltaLog(rel.DeltaLogTruncatedThrough())
	if len(resumed) != DefaultDeltaLogCap || resumed[0].Seq != wantFirst {
		t.Fatalf("resume at high-water mark: %d entries, first %d", len(resumed), resumed[0].Seq)
	}
	for i := 1; i < len(resumed); i++ {
		if resumed[i].Seq != resumed[i-1].Seq+1 {
			t.Fatalf("non-consecutive Seq at %d: %d after %d", i, resumed[i].Seq, resumed[i-1].Seq)
		}
	}
}

// TestDeltaLogConfiguredCap pins the gap-detection contract across a
// configured (small) cap boundary: before the cap is hit the log is
// complete from 0; the first eviction moves DeltaLogTruncatedThrough in
// lockstep with the oldest retained entry.
func TestDeltaLogConfiguredCap(t *testing.T) {
	rel := deltaLogFixture(t)
	rel.SetDeltaLogCap(4)
	if got := rel.DeltaLogCap(); got != 4 {
		t.Fatalf("cap = %d, want 4", got)
	}

	// Below the cap: complete, nothing evicted.
	for i := int64(1); i <= 4; i++ {
		appendOne(t, rel, i)
		if got := rel.DeltaLogTruncatedThrough(); got != 0 {
			t.Fatalf("after %d entries (cap 4): truncatedThrough = %d, want 0", i, got)
		}
		if got := len(rel.DeltaLog(0)); got != int(i) {
			t.Fatalf("after %d entries: %d retained, want %d", i, got, i)
		}
	}

	// Crossing the boundary: each append evicts exactly the oldest entry
	// and advances the high-water mark by one.
	for i := int64(5); i <= 9; i++ {
		appendOne(t, rel, i)
		log := rel.DeltaLog(0)
		if len(log) != 4 {
			t.Fatalf("after %d entries: %d retained, want 4", i, len(log))
		}
		if want := i - 4; rel.DeltaLogTruncatedThrough() != want {
			t.Fatalf("after %d entries: truncatedThrough = %d, want %d",
				i, rel.DeltaLogTruncatedThrough(), want)
		}
		if log[0].Seq != rel.DeltaLogTruncatedThrough()+1 {
			t.Fatalf("gap between truncatedThrough %d and oldest retained %d",
				rel.DeltaLogTruncatedThrough(), log[0].Seq)
		}
		// Resume exactly at the high-water mark: complete suffix.
		if got := len(rel.DeltaLog(rel.DeltaLogTruncatedThrough())); got != 4 {
			t.Fatalf("resume at mark after %d entries: %d, want 4", i, got)
		}
	}

	// Shrinking the cap takes effect on the next logged delta.
	rel.SetDeltaLogCap(2)
	appendOne(t, rel, 10)
	if got := len(rel.DeltaLog(0)); got != 2 {
		t.Fatalf("after shrink to 2: %d retained, want 2", got)
	}
	if got := rel.DeltaLogTruncatedThrough(); got != 8 {
		t.Fatalf("after shrink to 2: truncatedThrough = %d, want 8", got)
	}
}

// TestDatabaseDeltaLogCapDefault verifies the database-wide default reaches
// existing and future relations, and per-relation overrides win.
func TestDatabaseDeltaLogCapDefault(t *testing.T) {
	db := NewDatabase()
	k := db.Attr("k", Key)
	before := NewRelation("before", []AttrID{k}, []Column{NewIntColumn(nil)})
	if err := db.AddRelation(before); err != nil {
		t.Fatal(err)
	}
	db.SetDeltaLogCap(3)
	after := NewRelation("after", []AttrID{k}, []Column{NewIntColumn(nil)})
	if err := db.AddRelation(after); err != nil {
		t.Fatal(err)
	}
	if got := before.DeltaLogCap(); got != 3 {
		t.Fatalf("existing relation cap = %d, want 3", got)
	}
	if got := after.DeltaLogCap(); got != 3 {
		t.Fatalf("new relation cap = %d, want 3", got)
	}
	after.SetDeltaLogCap(7)
	if got := after.DeltaLogCap(); got != 7 {
		t.Fatalf("per-relation override = %d, want 7", got)
	}
}

// TestRelationRestore verifies checkpoint restoration: contents and version
// replaced wholesale, the delta log emptied with its high-water mark moved to
// the restored version.
func TestRelationRestore(t *testing.T) {
	rel := deltaLogFixture(t)
	for i := int64(1); i <= 3; i++ {
		appendOne(t, rel, i)
	}

	if err := rel.Restore([]Column{NewIntColumn([]int64{7, 8})}, 42, nil); err != nil {
		t.Fatal(err)
	}
	if got := rel.Len(); got != 2 {
		t.Fatalf("restored rows = %d, want 2", got)
	}
	if got := rel.Version(); got != 42 {
		t.Fatalf("restored version = %d, want 42", got)
	}
	if got := rel.DeltaLog(0); len(got) != 0 {
		t.Fatalf("restored log has %d entries, want 0", len(got))
	}
	if got := rel.DeltaLogTruncatedThrough(); got != 42 {
		t.Fatalf("restored truncatedThrough = %d, want 42", got)
	}

	// Post-restore appends continue from the restored version.
	appendOne(t, rel, 9)
	if log := rel.DeltaLog(42); len(log) != 1 || log[0].Seq != 43 {
		t.Fatalf("post-restore log: %d entries, first %v", len(log), log)
	}

	// Mismatched block shape is rejected and leaves state untouched.
	if err := rel.Restore([]Column{NewIntColumn(nil), NewIntColumn(nil)}, 50, nil); err == nil {
		t.Fatal("Restore accepted wrong column count")
	}
	if got := rel.Version(); got != 43 {
		t.Fatalf("failed Restore changed version to %d", got)
	}
}
