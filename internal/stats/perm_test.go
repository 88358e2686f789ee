package stats

import (
	"fmt"
	"sort"
	"testing"
)

func permKey(p []int) string {
	key := ""
	for _, v := range p {
		key += string(rune('0' + v))
	}
	return key
}

func TestFactorialInt(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 5: 120, 8: 40320, 12: 479001600}
	for n, want := range cases {
		if got := FactorialInt(n); got != want {
			t.Errorf("FactorialInt(%d) = %d, want %d", n, got, want)
		}
	}
	for _, bad := range []int{-1, 21} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FactorialInt(%d) did not panic", bad)
				}
			}()
			FactorialInt(bad)
		}()
	}
}

// identity returns [0, n).
func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Unrank over the full rank space must give exactly n! distinct
// permutations in strictly increasing lexicographic order: the sorted
// Heap's-algorithm enumeration.
func TestUnrankFullEnumeration(t *testing.T) {
	const n = 5
	total := FactorialInt(n)
	src, p := identity(n), make([]int, n)
	var seen []string
	for rank := 0; rank < total; rank++ {
		Unrank(p, src, rank)
		key := permKey(p)
		if rank > 0 && key <= seen[rank-1] {
			t.Fatalf("rank %d: %s not lexicographically after %s", rank, key, seen[rank-1])
		}
		seen = append(seen, key)
	}
	var heap []string
	Permutations(n, func(p []int) bool {
		heap = append(heap, permKey(p))
		return true
	})
	sort.Strings(heap)
	if len(heap) != total {
		t.Fatalf("Heap's algorithm gave %d permutations, want %d", len(heap), total)
	}
	for i, key := range seen { // lexicographic order == sorted order
		if key != heap[i] {
			t.Fatalf("rank %d: %s differs from sorted Heap enumeration %s", i, key, heap[i])
		}
	}
}

// Unrank permutes the elements of src, whatever their values, by the
// rank's permutation of positions, and leaves src alone.
func TestUnrankKnownValues(t *testing.T) {
	cases := []struct {
		n, rank int
		want    string
	}{
		{3, 0, "012"}, {3, 1, "021"}, {3, 2, "102"},
		{3, 3, "120"}, {3, 4, "201"}, {3, 5, "210"},
		{1, 0, "0"}, {0, 0, ""},
		{4, 23, "3210"},
	}
	for _, c := range cases {
		p := make([]int, c.n)
		if Unrank(p, identity(c.n), c.rank); permKey(p) != c.want {
			t.Errorf("Unrank(%d, %d) = %s, want %s", c.n, c.rank, permKey(p), c.want)
		}
	}
	src := []string{"c", "a", "b"}
	dst := make([]string, 3)
	if Unrank(dst, src, 3); fmt.Sprint(dst) != "[a b c]" || fmt.Sprint(src) != "[c a b]" {
		t.Errorf("Unrank of %v at rank 3 = %v, want [a b c]", src, dst)
	}
}

func BenchmarkUnrank8(b *testing.B) {
	total := FactorialInt(8)
	src, p := identity(8), make([]int, 8)
	for i := 0; i < b.N; i++ {
		Unrank(p, src, i%total)
	}
}

// Permutations calls fn with every permutation of [0, n). The slice passed
// to fn is reused between calls; fn must copy it if it needs to retain it.
// If fn returns false the enumeration stops early. Permutations panics for
// n < 0. Heap's algorithm, so the number of calls is n! — callers bound n.
func Permutations(n int, fn func(perm []int) bool) {
	if n < 0 {
		panic("stats: Permutations of negative n")
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n == 0 {
		fn(perm)
		return
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == 1 {
			return fn(perm)
		}
		for i := 0; i < k; i++ {
			if !rec(k - 1) {
				return false
			}
			if i < k-1 {
				if k%2 == 0 {
					perm[i], perm[k-1] = perm[k-1], perm[i]
				} else {
					perm[0], perm[k-1] = perm[k-1], perm[0]
				}
			}
		}
		return true
	}
	rec(n)
}
