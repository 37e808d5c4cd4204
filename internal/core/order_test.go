package core

import (
	"math/rand"
	"slices"
	"testing"
)

// orderCost is the cost model of attrOrders evaluated directly on one order:
// Σ_d P(first d attributes) plus, per key set K, P(shortest prefix ⊇ K),
// where P(S) = min(rows, Π_{a∈S} dist[a]).
func orderCost(order []int, dist []int64, rows int64, keys []uint32) int64 {
	prefixes := func(s uint32) int64 {
		p := min(rows, 1)
		for a := range dist {
			if s&(1<<a) != 0 {
				p = min(rows, p*dist[a])
			}
		}
		return p
	}
	var cost int64
	done := make([]bool, len(keys))
	s := uint32(0)
	for _, a := range order {
		s |= 1 << a
		cost += prefixes(s)
		for i, k := range keys {
			if !done[i] && k&^s == 0 {
				done[i] = true
				cost += prefixes(s)
			}
		}
	}
	return cost
}

// permutations calls fn with every permutation of 0..n-1 in lexicographic
// order.
func permutations(n int, fn func([]int)) {
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(perm) == n {
			fn(perm)
			return
		}
		for a := 0; a < n; a++ {
			if !used[a] {
				used[a] = true
				perm = append(perm, a)
				rec()
				perm = perm[:len(perm)-1]
				used[a] = false
			}
		}
	}
	rec()
}

// TestAttrOrderIsOptimal checks bestOrder against brute force: on random
// nodes of up to six attributes — distinct counts that often multiply past
// the row count, so the min(|R|, ·) cap decides — its order costs the
// minimum over all permutations and is the lexicographically first optimal
// permutation, so the domain-size order wins every tie it is part of. Above
// the search guard the domain-size order comes back unsearched.
func TestAttrOrderIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 400; trial++ {
		L := 1 + rng.Intn(6)
		dist := make([]int64, L)
		for i := range dist {
			dist[i] = 1 + rng.Int63n(60)
		}
		slices.Sort(dist) // ranked by domain size
		rows := 1 + rng.Int63n(2000)
		var keys []uint32
		for n := min(rng.Intn(5), 1<<L-1); len(keys) < n; {
			k := uint32(1 + rng.Intn(1<<L-1))
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		got := bestOrder(dist, rows, keys)
		var want []int
		best := int64(-1)
		permutations(L, func(p []int) {
			if c := orderCost(p, dist, rows, keys); best < 0 || c < best {
				best, want = c, slices.Clone(p)
			}
		})
		if c := orderCost(got, dist, rows, keys); c != best || !slices.Equal(got, want) {
			t.Fatalf("dist %v rows %d keys %b: got %v (cost %d), want %v (cost %d)",
				dist, rows, keys, got, c, want, best)
		}
	}

	// Symmetric attributes tie on every order: the domain-size order wins.
	for _, keys := range [][]uint32{nil, {0b111}, {0b001, 0b010, 0b100}} {
		if got := bestOrder([]int64{5, 5, 5}, 1000, keys); !slices.Equal(got, []int{0, 1, 2}) {
			t.Errorf("keys %b: tied order %v, want the domain-size order", keys, got)
		}
	}
	// Retailer's Weather node: keys on each flag, on locn alone (the wide
	// Location view) and on (dateid, locn) move locn ahead of dateid.
	weather := []uint32{0b00001, 0b00010, 0b00100, 0b10000, 0b11000}
	if got := bestOrder([]int64{2, 2, 2, 59, 93}, 100000, weather); !slices.Equal(got, []int{0, 1, 2, 4, 3}) {
		t.Errorf("keyed order %v, want [0 1 2 4 3]", got)
	}

	L := maxOrderAttrs + 1
	dist := make([]int64, L)
	for i := range dist {
		dist[i] = int64(L - i) // a search would reverse these
	}
	got := bestOrder(dist, 1<<40, []uint32{1 << (L - 1)})
	for i, a := range got {
		if a != i {
			t.Fatalf("above the guard: order %v, want the domain-size order", got)
		}
	}
}
