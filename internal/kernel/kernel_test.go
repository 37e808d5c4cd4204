package kernel

import (
	"reflect"
	"testing"
)

func TestShapeKeyDistinguishes(t *testing.T) {
	// Every pair of distinct shapes below must produce distinct keys; the
	// tricky cases are nil-vs-empty slices and delimiter bytes inside the
	// relation name.
	shapes := []Shape{
		{},
		{Relation: "Items"},
		{Relation: "Items|node=1"}, // delimiter injection attempt
		{Relation: "Items\"|x"},
		{Node: 1},
		{Group: 1},
		{AtDelta: true},
		{Compiled: true},
		{Dirty: []int{}},
		{Dirty: []int{1}},
		{Dirty: []int{1, 2}},
		{Dirty: []int{12}},
		{DeltaInputs: []int{1}},
		{SemiJoin: [][]int64{}},
		{SemiJoin: [][]int64{nil}},
		{SemiJoin: [][]int64{{}}},
		{SemiJoin: [][]int64{{3}}},
		{SemiJoin: [][]int64{{3}, nil}},
		{SemiJoin: [][]int64{{3, 4}}},
		{SemiJoin: [][]int64{{34}}},
		{Relation: "Inventory", Node: 2, Group: 3, Dirty: []int{0, 4},
			DeltaInputs: []int{2}, SemiJoin: [][]int64{{7}}},
	}
	keys := make(map[string]int)
	for i, s := range shapes {
		k := s.Key()
		if j, dup := keys[k]; dup {
			t.Fatalf("shapes %d and %d collide on key %q", j, i, k)
		}
		keys[k] = i
	}
}

func TestShapeKeyDeterministic(t *testing.T) {
	s := Shape{Relation: "Weather", Node: 3, Group: 5, AtDelta: true, Compiled: true,
		Dirty: []int{1, 2, 9}, DeltaInputs: []int{4}, SemiJoin: [][]int64{{11, 12}, nil}}
	cp := Shape{Relation: s.Relation, Node: s.Node, Group: s.Group,
		AtDelta: s.AtDelta, Compiled: s.Compiled,
		Dirty:       append([]int(nil), s.Dirty...),
		DeltaInputs: append([]int(nil), s.DeltaInputs...),
		SemiJoin:    [][]int64{append([]int64(nil), s.SemiJoin[0]...), nil}}
	if !reflect.DeepEqual(s, cp) {
		t.Fatal("copy is not DeepEqual to original")
	}
	if s.Key() != cp.Key() {
		t.Fatalf("equal shapes produced different keys:\n%q\n%q", s.Key(), cp.Key())
	}
	if s.Key() != s.Key() {
		t.Fatal("Key is not deterministic")
	}
}

func TestCacheCounts(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 42)
	v, ok := c.Get("a")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get(a) = %v, %v; want 42, true", v, ok)
	}
	c.Put("b", "x")
	c.Get("b")
	c.Get("missing")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("Stats = %+v; want 2 hits, 2 misses, size 2", st)
	}
	c.Clear()
	if _, ok := c.Get("a"); ok {
		t.Fatal("cleared cache reported a hit")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 3 || st.Size != 0 {
		t.Fatalf("Stats after Clear = %+v; want 2 hits, 3 misses, size 0", st)
	}
}
