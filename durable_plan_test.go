package lmfao

import (
	"strings"
	"testing"
)

// TestRecoverRejectsOtherBatch recovers a checkpoint written for
// byregion(Count, Sum(amount)) with the batch byregion(Sum(amount)). The
// views group by the same attributes but hold another number of columns, so
// restoring them would read counts as sums: recovery must fail and name the
// view.
func TestRecoverRejectsOtherBatch(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	dir := t.TempDir()
	d, err := NewDurableSession(db, []*Query{NewQuery("byregion", []AttrID{region}, Count(), Sum(amount))},
		DefaultOptions(), DurableOptions{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	pristine, _, amount, region := sessionFixture(t)
	rec, err := RecoverSession(dir, pristine, []*Query{NewQuery("byregion", []AttrID{region}, Sum(amount))},
		DefaultOptions(), DurableOptions{})
	if err == nil {
		rec.Close()
		t.Fatal("recovery under another batch's plan succeeded")
	}
	if !strings.Contains(err.Error(), "checkpoint view ") {
		t.Fatalf("recovery error %q does not name the view", err)
	}
}

// planPinFixture is R(a, b, v) ⋈ S(b, c) with the batch (a, c) and (a). R
// holds 100 values of a over two values of b; S holds k values of c per
// b. Find Roots' cost model roots (a, c) at R while 2k < 100 and at S
// beyond.
func planPinFixture(t *testing.T, k int) (*Database, []*Query) {
	t.Helper()
	db := NewDatabase()
	a, b := db.Attr("a", Categorical), db.Attr("b", Key)
	c, v := db.Attr("c", Categorical), db.Attr("v", Numeric)
	var ra, rb []int64
	var rv []float64
	for i := 0; i < 100; i++ {
		ra, rb, rv = append(ra, int64(i)), append(rb, int64(i%2)), append(rv, float64(i%8)/4)
	}
	if err := db.AddRelation(NewRelation("R", []AttrID{a, b, v},
		[]Column{IntColumn(ra), IntColumn(rb), FloatColumn(rv)})); err != nil {
		t.Fatal(err)
	}
	sb, sc := planPinRows(0, k)
	if err := db.AddRelation(NewRelation("S", []AttrID{b, c}, []Column{IntColumn(sb), IntColumn(sc)})); err != nil {
		t.Fatal(err)
	}
	return db, []*Query{
		NewQuery("ac", []AttrID{a, c}, Count(), Sum(v)),
		NewQuery("a", []AttrID{a}, Count()),
	}
}

// planPinRows returns the S rows with c in [from, to) for both values of b.
func planPinRows(from, to int) (b, c []int64) {
	for x := from; x < to; x++ {
		b, c = append(b, 0, 1), append(c, int64(x), int64(x))
	}
	return b, c
}

// TestRecoverAfterRootMoves: updates move the root the cost model picks
// for (a, c), then a forced recompute, a checkpoint and a kill. The session
// runs the plan it built at construction throughout, so recovery — which
// plans over the pristine statistics — restores its views bit-exact.
func TestRecoverAfterRootMoves(t *testing.T) {
	db, queries := planPinFixture(t, 10)
	dir := t.TempDir()
	d, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{CheckpointEvery: -1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	root := d.shards[0].plan.Roots[0]
	for x := 10; x < 60; x += 10 {
		b, c := planPinRows(x, x+10)
		if _, err := d.Apply(InsertRows("S", IntColumn(b), IntColumn(c))); err != nil {
			t.Fatal(err)
		}
	}
	replanned, err := d.Session().Engine().PlanBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if replanned.Roots[0] == root {
		t.Fatalf("fixture: after the updates (a, c) is still rooted at node %d", root)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Head().Batch().Plan.Roots[0]; got != root {
		t.Fatalf("a recompute rooted (a, c) at node %d, the session's plan at %d", got, root)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(DeleteRows("S", IntColumn([]int64{1}), IntColumn([]int64{3}))); err != nil {
		t.Fatal(err)
	}
	d.Kill()

	pristine, _ := planPinFixture(t, 10)
	rec, err := RecoverSession(dir, pristine, queries, DefaultOptions(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	checkRecovered(t, rec.Session(), d.Session())
}
