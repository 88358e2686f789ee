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

// PermutationRange over the full rank space must enumerate exactly n!
// distinct permutations in strictly increasing lexicographic order, each
// matching its own unranking.
func TestPermutationRangeFullEnumeration(t *testing.T) {
	const n = 5
	total := FactorialInt(n)
	var seen []string
	prev := ""
	PermutationRange(n, 0, total, func(rank int, p []int) bool {
		if len(p) != n {
			t.Fatalf("rank %d: permutation length %d", rank, len(p))
		}
		key := permKey(p)
		if key <= prev {
			t.Fatalf("rank %d: %s not lexicographically after %s", rank, key, prev)
		}
		prev = key
		if want := permKey(PermutationUnrank(n, rank)); key != want {
			t.Fatalf("rank %d: enumerated %s, unranked %s", rank, key, want)
		}
		seen = append(seen, key)
		return true
	})
	if len(seen) != total {
		t.Fatalf("enumerated %d permutations, want %d", len(seen), total)
	}
	// Same set as Heap's-algorithm enumeration.
	var heap []string
	Permutations(n, func(p []int) bool {
		heap = append(heap, permKey(p))
		return true
	})
	sort.Strings(heap)
	for i, key := range seen { // lexicographic order == sorted order
		if key != heap[i] {
			t.Fatalf("rank %d: %s differs from sorted Heap enumeration %s", i, key, heap[i])
		}
	}
}

// Splitting [0, n!) into contiguous chunks must cover every rank exactly
// once regardless of the split points, including degenerate chunks.
func TestPermutationRangeSplitCoverage(t *testing.T) {
	const n = 4
	total := FactorialInt(n)
	for _, bounds := range [][]int{
		{0, total},
		{0, 1, total},
		{0, 7, 7, 13, total},
		{0, 6, 12, 18, total},
		{-5, 3, total + 9}, // out-of-range bounds clamp
	} {
		got := map[int]int{}
		for i := 0; i+1 < len(bounds); i++ {
			PermutationRange(n, bounds[i], bounds[i+1], func(rank int, p []int) bool {
				got[rank]++
				if want := permKey(PermutationUnrank(n, rank)); permKey(p) != want {
					t.Fatalf("bounds %v rank %d: got %s, want %s", bounds, rank, permKey(p), want)
				}
				return true
			})
		}
		if len(got) != total {
			t.Fatalf("bounds %v covered %d ranks, want %d", bounds, len(got), total)
		}
		for rank, count := range got {
			if count != 1 {
				t.Fatalf("bounds %v visited rank %d %d times", bounds, rank, count)
			}
		}
	}
}

func TestPermutationRangeEarlyStopAndZero(t *testing.T) {
	calls := 0
	PermutationRange(5, 10, 100, func(rank int, p []int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop after %d calls, want 3", calls)
	}
	calls = 0
	PermutationRange(0, 0, 1, func(rank int, p []int) bool {
		calls++
		if rank != 0 || len(p) != 0 {
			t.Errorf("n=0 gave rank %d, perm %v", rank, p)
		}
		return true
	})
	if calls != 1 {
		t.Errorf("n=0 made %d calls, want 1", calls)
	}
	PermutationRange(3, 4, 2, func(rank int, p []int) bool {
		t.Error("empty range invoked fn")
		return true
	})
}

func TestPermutationUnrankKnownValues(t *testing.T) {
	cases := []struct {
		n, rank int
		want    string
	}{
		{3, 0, "012"}, {3, 1, "021"}, {3, 2, "102"},
		{3, 3, "120"}, {3, 4, "201"}, {3, 5, "210"},
		{1, 0, "0"},
		{4, 23, "3210"},
	}
	for _, c := range cases {
		if got := permKey(PermutationUnrank(c.n, c.rank)); got != c.want {
			t.Errorf("PermutationUnrank(%d, %d) = %s, want %s", c.n, c.rank, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank did not panic")
		}
	}()
	PermutationUnrank(3, 6)
}

func BenchmarkPermutationRange8(b *testing.B) {
	total := FactorialInt(8)
	for i := 0; i < b.N; i++ {
		count := 0
		PermutationRange(8, 0, total, func(rank int, p []int) bool {
			count++
			return true
		})
		if count != total {
			b.Fatal(fmt.Errorf("enumerated %d, want %d", count, total))
		}
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
