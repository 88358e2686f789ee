package flow

import (
	"testing"
	"testing/quick"
)

func TestMaxFlowTextbook(t *testing.T) {
	// Classic 6-node example with max flow 23.
	g := NewNetwork(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlow(0, 5); got != 23 {
		t.Errorf("max flow = %d, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewNetwork(4)
	g.AddEdge(0, 1, 5)
	// No path to 3.
	if got := g.MaxFlow(0, 3); got != 0 {
		t.Errorf("max flow = %d, want 0", got)
	}
}

func TestNetworkPanics(t *testing.T) {
	cases := []func(){
		func() { NewNetwork(0) },
		func() { NewNetwork(2).AddEdge(0, 5, 1) },
		func() { NewNetwork(2).AddEdge(0, 1, -1) },
		func() { NewNetwork(2).MaxFlow(0, 0) },
		func() { NewNetwork(2).MaxFlow(-1, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAssignmentFeasible(t *testing.T) {
	a := &AssignmentProblem{
		Items:    4,
		Capacity: []int{2, 2},
		Allowed:  [][]int{{0}, {0}, nil, nil},
	}
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentInfeasible(t *testing.T) {
	a := &AssignmentProblem{
		Items:    3,
		Capacity: []int{2, 5},
		Allowed:  [][]int{{0}, {0}, {0}}, // three items pinned to capacity-2 bin
	}
	if err := a.Solve(); err == nil {
		t.Error("infeasible assignment accepted")
	}
}

func TestAssignmentHallViolation(t *testing.T) {
	// Items 0 and 1 both only allow bin 0 (cap 1); bin 1 is free but
	// unusable: Hall's condition fails even though total capacity is fine.
	a := &AssignmentProblem{
		Items:    2,
		Capacity: []int{1, 1},
		Allowed:  [][]int{{0}, {0}},
	}
	if err := a.Solve(); err == nil {
		t.Error("Hall violation accepted")
	}
}

func TestAssignmentErrors(t *testing.T) {
	if err := (&AssignmentProblem{Items: 1, Capacity: nil, Allowed: [][]int{nil}}).Solve(); err == nil {
		t.Error("no bins accepted")
	}
	if err := (&AssignmentProblem{Items: 2, Capacity: []int{5}, Allowed: [][]int{nil}}).Solve(); err == nil {
		t.Error("mismatched Allowed length accepted")
	}
	if err := (&AssignmentProblem{Items: 1, Capacity: []int{1}, Allowed: [][]int{{7}}}).Solve(); err == nil {
		t.Error("out-of-range allowed bin accepted")
	}
	if err := (&AssignmentProblem{Items: 1, Capacity: []int{-1}, Allowed: [][]int{nil}}).Solve(); err == nil {
		t.Error("negative capacity accepted")
	}
}

// Property: the verdict is feasible exactly when an exhaustive search finds
// an assignment that puts every item on an allowed bin within capacity.
func TestQuickAssignmentValid(t *testing.T) {
	f := func(itemsRaw, binsRaw uint8, caps, masks []uint8) bool {
		items := int(itemsRaw%10) + 1
		bins := int(binsRaw%4) + 1
		capacity := make([]int, bins)
		for b := range capacity {
			capacity[b] = (items+bins-1)/bins + 1
			if b < len(caps) {
				capacity[b] = int(caps[b] % 4)
			}
		}
		allowed := make([][]int, items)
		for i := 0; i < items && i < len(masks); i++ {
			for b := 0; b < bins; b++ {
				if masks[i]&(1<<uint(b)) != 0 {
					allowed[i] = append(allowed[i], b)
				}
			}
		}
		a := &AssignmentProblem{Items: items, Capacity: capacity, Allowed: allowed}
		return (a.Solve() == nil) == exhaustive(allowed, capacity, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// exhaustive reports whether items i.. can be assigned to allowed bins
// within the remaining capacity, by backtracking.
func exhaustive(allowed [][]int, capacity []int, i int) bool {
	if i == len(allowed) {
		return true
	}
	try := func(b int) bool {
		if capacity[b] == 0 {
			return false
		}
		capacity[b]--
		ok := exhaustive(allowed, capacity, i+1)
		capacity[b]++
		return ok
	}
	if len(allowed[i]) == 0 {
		for b := range capacity {
			if try(b) {
				return true
			}
		}
		return false
	}
	for _, b := range allowed[i] {
		if try(b) {
			return true
		}
	}
	return false
}
