package main

import (
	"strings"
	"testing"

	lmfao "repro"
)

// maintainerFixture is a two-relation database and a one-query batch over
// it.
func maintainerFixture(t *testing.T) (*lmfao.Database, []*lmfao.Query) {
	t.Helper()
	db := lmfao.NewDatabase()
	store := db.Attr("store", lmfao.Key)
	amount := db.Attr("amount", lmfao.Numeric)
	region := db.Attr("region", lmfao.Categorical)
	if err := db.AddRelation(lmfao.NewRelation("sales", []lmfao.AttrID{store, amount},
		[]lmfao.Column{lmfao.IntColumn([]int64{0, 1, 2, 3}), lmfao.FloatColumn([]float64{1, 2, 3, 4})})); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(lmfao.NewRelation("stores", []lmfao.AttrID{store, region},
		[]lmfao.Column{lmfao.IntColumn([]int64{0, 1, 2, 3}), lmfao.IntColumn([]int64{1, 1, 2, 2})})); err != nil {
		t.Fatal(err)
	}
	return db, []*lmfao.Query{lmfao.NewQuery("byregion", []lmfao.AttrID{region}, lmfao.Sum(amount))}
}

// TestNewMaintainerRecoversManifestShards pins that a durable directory is
// recovered with the shard count its manifest records: a -shards value
// that disagrees is an error naming both counts, and the recovered session
// reports the recorded count.
func TestNewMaintainerRecoversManifestShards(t *testing.T) {
	dir := t.TempDir()
	db, queries := maintainerFixture(t)
	m, kind, err := newMaintainer(db, queries, lmfao.DefaultOptions(), 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "durable session (2 shards)" {
		t.Fatalf("kind = %q", kind)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	db, queries = maintainerFixture(t)
	if _, _, err := newMaintainer(db, queries, lmfao.DefaultOptions(), 1, dir); err == nil ||
		!strings.Contains(err.Error(), "-shards 1") || !strings.Contains(err.Error(), "2 shards") {
		t.Fatalf("recovery with -shards 1 over 2 recorded shards: err = %v", err)
	}
	db, queries = maintainerFixture(t)
	m, kind, err = newMaintainer(db, queries, lmfao.DefaultOptions(), 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if kind != "durable session (recovered, 2 shards)" || m.NumShards() != 2 {
		t.Fatalf("kind = %q over %d shards", kind, m.NumShards())
	}
}
