package jointree

import (
	"math/rand"
	"testing"

	"repro/internal/data"
)

// chainDB builds S1(x1,x2), S2(x2,x3), ..., S{n-1}(x{n-1},xn) with rows.
func chainDB(t *testing.T, n, rows int, seed int64) *data.Database {
	t.Helper()
	db := data.NewDatabase()
	attrs := make([]data.AttrID, n+1)
	for i := 1; i <= n; i++ {
		attrs[i] = db.Attr(attrName(i), data.Key)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < n; i++ {
		a := make([]int64, rows)
		b := make([]int64, rows)
		for r := 0; r < rows; r++ {
			a[r] = int64(rng.Intn(4))
			b[r] = int64(rng.Intn(4))
		}
		rel := data.NewRelation(relName(i), []data.AttrID{attrs[i], attrs[i+1]},
			[]data.Column{data.NewIntColumn(a), data.NewIntColumn(b)})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func attrName(i int) string { return "x" + string(rune('0'+i)) }
func relName(i int) string  { return "S" + string(rune('0'+i)) }

func TestAcyclicGYO(t *testing.T) {
	a, b, c, d := data.AttrID(0), data.AttrID(1), data.AttrID(2), data.AttrID(3)
	cases := []struct {
		name  string
		edges [][]data.AttrID
		want  bool
	}{
		{"single", [][]data.AttrID{{a, b}}, true},
		{"chain", [][]data.AttrID{{a, b}, {b, c}, {c, d}}, true},
		{"star", [][]data.AttrID{{a, b, c}, {a}, {b}, {c}}, true},
		{"triangle", [][]data.AttrID{{a, b}, {b, c}, {a, c}}, false},
		{"square", [][]data.AttrID{{a, b}, {b, c}, {c, d}, {d, a}}, false},
		{"triangle+cover", [][]data.AttrID{{a, b}, {b, c}, {a, c}, {a, b, c}}, true},
		{"duplicate edges", [][]data.AttrID{{a, b}, {a, b}}, true},
		{"disconnected", [][]data.AttrID{{a, b}, {c, d}}, true},
		{"empty", nil, true},
	}
	for _, tc := range cases {
		if got := Acyclic(tc.edges); got != tc.want {
			t.Errorf("%s: Acyclic = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBuildChain(t *testing.T) {
	db := chainDB(t, 5, 10, 1)
	tree, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(tree.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(tree.Nodes))
	}
	if len(tree.Edges()) != 3 {
		t.Fatalf("edges = %v", tree.Edges())
	}
	if err := tree.VerifyRunningIntersection(); err != nil {
		t.Fatalf("running intersection: %v", err)
	}
	if tree.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBuildTriangleDecomposes(t *testing.T) {
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	c := db.Attr("c", data.Key)
	mk := func(name string, x, y data.AttrID) {
		rel := data.NewRelation(name, []data.AttrID{x, y}, []data.Column{
			data.NewIntColumn([]int64{1, 1, 2}),
			data.NewIntColumn([]int64{1, 2, 2}),
		})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	mk("R", a, b)
	mk("S", b, c)
	mk("T", a, c)
	tree, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(tree.Nodes) != 2 {
		t.Fatalf("expected bag + remaining relation, got %d nodes", len(tree.Nodes))
	}
	if err := tree.VerifyRunningIntersection(); err != nil {
		t.Fatal(err)
	}
	// The bag must contain all three attributes.
	found := false
	for _, n := range tree.Nodes {
		if len(n.Attrs) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("no 3-attribute bag materialized")
	}
}

// TestNodeMembers pins the member metadata: plain nodes carry their own
// relation name, bags the merged names, and NodeByMember routes members to
// their bag while NodeByRelation does not.
func TestNodeMembers(t *testing.T) {
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	c := db.Attr("c", data.Key)
	mk := func(name string, x, y data.AttrID) {
		rel := data.NewRelation(name, []data.AttrID{x, y}, []data.Column{
			data.NewIntColumn([]int64{1, 1, 2}),
			data.NewIntColumn([]int64{1, 2, 2}),
		})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	mk("R", a, b)
	mk("S", b, c)
	mk("T", a, c)
	tree, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	var bag, plain *Node
	for _, n := range tree.Nodes {
		if n.IsBag() {
			bag = n
		} else {
			plain = n
		}
	}
	if bag == nil || plain == nil {
		t.Fatalf("expected one bag and one plain node")
	}
	if len(bag.Members) != 2 {
		t.Fatalf("bag members = %v", bag.Members)
	}
	if len(plain.Members) != 1 || plain.Members[0] != plain.Rel.Name {
		t.Fatalf("plain node members = %v", plain.Members)
	}
	for _, m := range bag.Members {
		if tree.NodeByMember(m) != bag {
			t.Fatalf("NodeByMember(%q) did not return the bag", m)
		}
		if tree.NodeByRelation(m) != nil {
			t.Fatalf("NodeByRelation(%q) found a folded member", m)
		}
	}
	if tree.NodeByMember(plain.Rel.Name) != plain {
		t.Fatal("NodeByMember must fall back to the node relation name")
	}
	if tree.NodeByMember("nope") != nil {
		t.Fatal("NodeByMember of unknown name must be nil")
	}
}

func TestBuildErrors(t *testing.T) {
	db := data.NewDatabase()
	if _, err := Build(db); err == nil {
		t.Fatal("empty database accepted")
	}
}

func TestBagSizeCap(t *testing.T) {
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	c := db.Attr("c", data.Key)
	n := 40
	mk := func(name string, x, y data.AttrID) {
		xs := make([]int64, n)
		ys := make([]int64, n)
		for i := range xs {
			xs[i], ys[i] = 1, 1 // all rows join: bag gets n*n rows
		}
		rel := data.NewRelation(name, []data.AttrID{x, y}, []data.Column{
			data.NewIntColumn(xs), data.NewIntColumn(ys)})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	mk("R", a, b)
	mk("S", b, c)
	mk("T", a, c)
	if _, err := Build(db, WithMaxBagRows(100)); err == nil {
		t.Fatal("oversized bag accepted")
	}
}

func TestNaturalJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	c := db.Attr("c", data.Key)
	x := db.Attr("x", data.Numeric)

	nl, nr := 30, 40
	la := make([]int64, nl)
	lb := make([]int64, nl)
	lx := make([]float64, nl)
	for i := range la {
		la[i] = int64(rng.Intn(5))
		lb[i] = int64(rng.Intn(5))
		lx[i] = rng.Float64()
	}
	rb := make([]int64, nr)
	rc := make([]int64, nr)
	for i := range rb {
		rb[i] = int64(rng.Intn(5))
		rc[i] = int64(rng.Intn(5))
	}
	left := data.NewRelation("L", []data.AttrID{a, b, x}, []data.Column{
		data.NewIntColumn(la), data.NewIntColumn(lb), data.NewFloatColumn(lx)})
	right := data.NewRelation("R", []data.AttrID{b, c}, []data.Column{
		data.NewIntColumn(rb), data.NewIntColumn(rc)})

	out, err := NaturalJoin(db, left, right, "J")
	if err != nil {
		t.Fatalf("NaturalJoin: %v", err)
	}

	// Brute force count of join pairs and a checksum over (a,b,c,x).
	wantCount := 0
	var wantSum float64
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			if lb[i] == rb[j] {
				wantCount++
				wantSum += float64(la[i]) + float64(lb[i])*10 + float64(rc[j])*100 + lx[i]
			}
		}
	}
	if out.Len() != wantCount {
		t.Fatalf("join count = %d, want %d", out.Len(), wantCount)
	}
	ca := out.MustCol(a)
	cb := out.MustCol(b)
	cc := out.MustCol(c)
	cx := out.MustCol(x)
	var gotSum float64
	for i := 0; i < out.Len(); i++ {
		gotSum += ca.Float(i) + cb.Float(i)*10 + cc.Float(i)*100 + cx.Float(i)
	}
	if diff := gotSum - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("join checksum = %v, want %v", gotSum, wantSum)
	}
	// Schema: each attribute exactly once.
	if len(out.Attrs) != 4 {
		t.Fatalf("join schema = %v", out.Attrs)
	}
}

func TestNaturalJoinNumericKeyRejected(t *testing.T) {
	db := data.NewDatabase()
	x := db.Attr("x", data.Numeric)
	l := data.NewRelation("L", []data.AttrID{x}, []data.Column{data.NewFloatColumn([]float64{1})})
	r := data.NewRelation("R", []data.AttrID{x}, []data.Column{data.NewFloatColumn([]float64{1})})
	if _, err := NaturalJoin(db, l, r, "J"); err == nil {
		t.Fatal("numeric join key accepted")
	}
}

func TestAttrsBelow(t *testing.T) {
	db := chainDB(t, 4, 5, 2) // S1(x1,x2), S2(x2,x3), S3(x3,x4)
	tree, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	s1 := tree.NodeByRelation("S1")
	s2 := tree.NodeByRelation("S2")
	s3 := tree.NodeByRelation("S3")
	if s1 == nil || s2 == nil || s3 == nil {
		t.Fatal("missing nodes")
	}
	below := tree.AttrsBelow(s1.ID, s2.ID)
	if len(below) != 2 { // x1, x2
		t.Fatalf("AttrsBelow(S1→S2) = %v", below)
	}
	below = tree.AttrsBelow(s3.ID, s2.ID)
	if len(below) != 2 { // x3, x4
		t.Fatalf("AttrsBelow(S3→S2) = %v", below)
	}
	below = tree.AttrsBelow(s2.ID, s3.ID)
	if len(below) != 3 { // x1,x2,x3
		t.Fatalf("AttrsBelow(S2→S3) = %v", below)
	}
	// Memoized second call returns same content.
	again := tree.AttrsBelow(s2.ID, s3.ID)
	if len(again) != 3 {
		t.Fatal("memoized AttrsBelow differs")
	}
}

func TestMaterializeAllChain(t *testing.T) {
	db := chainDB(t, 4, 20, 5)
	tree, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tree.MaterializeAll("flat")
	if err != nil {
		t.Fatal(err)
	}
	// Brute force count of the 3-way join.
	rels := db.Relations()
	c1a := rels[0].Cols[0].Ints
	c1b := rels[0].Cols[1].Ints
	c2a := rels[1].Cols[0].Ints
	c2b := rels[1].Cols[1].Ints
	c3a := rels[2].Cols[0].Ints
	c3b := rels[2].Cols[1].Ints
	want := 0
	for i := range c1a {
		for j := range c2a {
			if c1b[i] != c2a[j] {
				continue
			}
			for k := range c3a {
				if c2b[j] == c3a[k] {
					want++
					_ = c3b
				}
			}
		}
	}
	if flat.Len() != want {
		t.Fatalf("materialized join = %d rows, want %d", flat.Len(), want)
	}
	if len(flat.Attrs) != 4 {
		t.Fatalf("flat schema = %v", flat.Attrs)
	}
}

func TestMaterializeSingleNode(t *testing.T) {
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	rel := data.NewRelation("R", []data.AttrID{a}, []data.Column{data.NewIntColumn([]int64{1, 2})})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	tree, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tree.MaterializeAll("flat")
	if err != nil {
		t.Fatal(err)
	}
	if flat.Len() != 2 || flat.Name != "flat" {
		t.Fatalf("flat = %q len %d", flat.Name, flat.Len())
	}
}

func TestPathAttrs(t *testing.T) {
	db := chainDB(t, 3, 5, 9)
	tree, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	e := tree.Edges()[0]
	shared := tree.PathAttrs(e.Lo, e.Hi)
	if len(shared) != 1 {
		t.Fatalf("PathAttrs = %v", shared)
	}
}

// Property: random star schemas are acyclic and build valid trees.
func TestRandomStarSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		db := data.NewDatabase()
		nDims := 2 + rng.Intn(4)
		keys := make([]data.AttrID, nDims)
		factCols := make([]data.Column, nDims)
		factAttrs := make([]data.AttrID, nDims)
		rows := 20
		for d := 0; d < nDims; d++ {
			keys[d] = db.Attr("k"+string(rune('a'+d)), data.Key)
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(rng.Intn(5))
			}
			factCols[d] = data.NewIntColumn(vals)
			factAttrs[d] = keys[d]
		}
		fact := data.NewRelation("fact", factAttrs, factCols)
		if err := db.AddRelation(fact); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < nDims; d++ {
			payload := db.Attr("p"+string(rune('a'+d)), data.Numeric)
			kv := make([]int64, 5)
			pv := make([]float64, 5)
			for i := range kv {
				kv[i] = int64(i)
				pv[i] = rng.Float64()
			}
			dim := data.NewRelation("dim"+string(rune('a'+d)),
				[]data.AttrID{keys[d], payload},
				[]data.Column{data.NewIntColumn(kv), data.NewFloatColumn(pv)})
			if err := db.AddRelation(dim); err != nil {
				t.Fatal(err)
			}
		}
		tree, err := Build(db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tree.VerifyRunningIntersection(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
