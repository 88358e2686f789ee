package collectives

import (
	"fmt"
	"testing"
	"testing/quick"

	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/netsim"
)

// propagate runs knowledge-propagation semantics over a schedule: a rank
// "knows" the payload once it receives a message from a rank that knew it
// at the start of that round. Returns the final knowledge vector.
func propagate(s *Schedule, seed int) []bool {
	has := make([]bool, s.N)
	has[seed] = true
	for _, round := range s.Rounds {
		next := append([]bool(nil), has...)
		for _, m := range round {
			if has[m.Src] {
				next[m.Dst] = true
			}
		}
		has = next
	}
	return has
}

// gather runs contribution-accumulation semantics: every rank starts with
// its own contribution; a message transfers the sender's start-of-round
// set to the receiver. Returns per-rank contribution counts.
func gather(s *Schedule) [][]bool {
	contrib := make([][]bool, s.N)
	for i := range contrib {
		contrib[i] = make([]bool, s.N)
		contrib[i][i] = true
	}
	for _, round := range s.Rounds {
		snapshot := make([][]bool, s.N)
		for i := range snapshot {
			snapshot[i] = append([]bool(nil), contrib[i]...)
		}
		for _, m := range round {
			for k, v := range snapshot[m.Src] {
				if v {
					contrib[m.Dst][k] = true
				}
			}
		}
	}
	return contrib
}

func countAll(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}

func TestBinomialBroadcastDelivers(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33} {
		for _, root := range []int{0, n / 2, n - 1} {
			s, err := BinomialBroadcast(n, root, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			has := propagate(s, root)
			for i, h := range has {
				if !h {
					t.Fatalf("n=%d root=%d: rank %d never received the broadcast", n, root, i)
				}
			}
			// Optimal round count for a binomial tree.
			wantRounds := 0
			for span := 1; span < n; span *= 2 {
				wantRounds++
			}
			if len(s.Rounds) != wantRounds {
				t.Errorf("n=%d: %d rounds, want %d", n, len(s.Rounds), wantRounds)
			}
		}
	}
}

func TestBinomialReduceCollects(t *testing.T) {
	for _, n := range []int{2, 5, 8, 17} {
		for _, root := range []int{0, n - 1} {
			s, err := BinomialReduce(n, root, 64)
			if err != nil {
				t.Fatal(err)
			}
			contrib := gather(s)
			if got := countAll(contrib[root]); got != n {
				t.Errorf("n=%d root=%d: root holds %d/%d contributions", n, root, got, n)
			}
		}
	}
}

func TestRecursiveDoublingAllreduce(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 13, 16} {
		s, err := RecursiveDoublingAllreduce(n, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		contrib := gather(s)
		for i := range contrib {
			if got := countAll(contrib[i]); got != n {
				t.Fatalf("n=%d: rank %d holds %d/%d contributions", n, i, got, n)
			}
		}
	}
}

func TestRingAllreduceStructure(t *testing.T) {
	n := 8
	var bytes int64 = 800
	s, err := RingAllreduce(n, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Rounds) != 2*(n-1) {
		t.Errorf("rounds = %d, want %d", len(s.Rounds), 2*(n-1))
	}
	for r, round := range s.Rounds {
		if len(round) != n {
			t.Errorf("round %d has %d messages, want %d", r, len(round), n)
		}
		for _, m := range round {
			if m.Dst != (m.Src+1)%n {
				t.Errorf("non-ring message %d→%d", m.Src, m.Dst)
			}
			if m.Bytes != 100 {
				t.Errorf("chunk = %d bytes, want 100", m.Bytes)
			}
		}
	}
	// Bandwidth optimality: total traffic ≈ 2·bytes·(n−1)/n per rank.
	var total int64
	for _, e := range s.Events(0) {
		total += e.Bytes
	}
	if total != int64(2*(n-1)*n)*100 {
		t.Errorf("total = %d", total)
	}
	one, err := RingAllreduce(1, 10)
	if err != nil || len(one.Rounds) != 0 {
		t.Error("n=1 ring should be empty")
	}
}

func TestArgErrors(t *testing.T) {
	if _, err := BinomialBroadcast(0, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BinomialBroadcast(4, 4, 1); err == nil {
		t.Error("root out of range accepted")
	}
	if _, err := BinomialBroadcast(4, 0, -1); err == nil {
		t.Error("negative payload accepted")
	}
	if _, err := HierarchicalBroadcast(nil, 0, 1); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := HierarchicalReduce([]int{0, 0}, 5, 1); err == nil {
		t.Error("hier root out of range accepted")
	}
	if _, err := HierarchicalAllreduce([]int{0, 0}, -1); err == nil {
		t.Error("hier negative payload accepted")
	}
}

func blockPlacement(n, sites int) []int {
	pl := make([]int, n)
	per := n / sites
	for i := range pl {
		site := i / per
		if site >= sites {
			site = sites - 1
		}
		pl[i] = site
	}
	return pl
}

func crossSiteMessages(s *Schedule, placement []int) int {
	n := 0
	for _, round := range s.Rounds {
		for _, m := range round {
			if placement[m.Src] != placement[m.Dst] {
				n++
			}
		}
	}
	return n
}

func TestHierarchicalBroadcastDelivers(t *testing.T) {
	pl := blockPlacement(32, 4)
	for _, root := range []int{0, 9, 31} {
		s, err := HierarchicalBroadcast(pl, root, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		has := propagate(s, root)
		for i, h := range has {
			if !h {
				t.Fatalf("root=%d: rank %d missed the broadcast", root, i)
			}
		}
	}
}

func TestHierarchicalReduceCollects(t *testing.T) {
	pl := blockPlacement(24, 3)
	s, err := HierarchicalReduce(pl, 5, 128)
	if err != nil {
		t.Fatal(err)
	}
	contrib := gather(s)
	// The reduction lands at the leader of root 5's site (rank 0 under a
	// block placement).
	if got := countAll(contrib[0]); got != 24 {
		t.Errorf("site leader holds %d/24 contributions", got)
	}
}

func TestHierarchicalAllreduceDelivers(t *testing.T) {
	pl := blockPlacement(32, 4)
	s, err := HierarchicalAllreduce(pl, 1024)
	if err != nil {
		t.Fatal(err)
	}
	contrib := gather(s)
	for i := range contrib {
		if got := countAll(contrib[i]); got != 32 {
			t.Fatalf("rank %d holds %d/32 contributions", i, got)
		}
	}
}

func TestHierarchyCrossesWANMinimally(t *testing.T) {
	pl := blockPlacement(64, 4)
	hier, err := HierarchicalAllreduce(pl, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Leaders exchange via two binomial phases over 4 sites: exactly
	// 2 × (4−1) WAN messages.
	if got := crossSiteMessages(hier, pl); got != 6 {
		t.Errorf("hierarchical allreduce crosses WAN %d times, want 6", got)
	}
	flat, err := RecursiveDoublingAllreduce(64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if flatCross := crossSiteMessages(flat, pl); flatCross <= 6*4 {
		t.Errorf("flat allreduce crosses WAN only %d times; test premise broken", flatCross)
	}
}

func TestHierarchicalFasterOnWAN(t *testing.T) {
	cloud, err := netmodel.PaperCloud(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := blockPlacement(64, 4)
	sim, err := netsim.NewWithOptions(cloud, pl, netsim.Options{DedicatedWAN: true})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := RecursiveDoublingAllreduce(64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := HierarchicalAllreduce(pl, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tFlat, err := sim.ReplayTrace(flat.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	tHier, err := sim.ReplayTrace(hier.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	if tHier >= tFlat {
		t.Errorf("hierarchical allreduce (%.3fs) not faster than flat (%.3fs) on the WAN", tHier, tFlat)
	}
}

func TestScheduleEventsTagging(t *testing.T) {
	s, err := BinomialBroadcast(8, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events(5)
	if len(events) != 7 {
		t.Fatalf("%d events, want one per non-root rank (7)", len(events))
	}
	if events[0].Tag != 5 {
		t.Errorf("first tag = %d, want 5", events[0].Tag)
	}
	if events[len(events)-1].Tag != 5+len(s.Rounds)-1 {
		t.Errorf("last tag = %d, want %d", events[len(events)-1].Tag, 5+len(s.Rounds)-1)
	}
}

// Property: broadcast delivers to all ranks and reduce collects all
// contributions for arbitrary (n, root, placement shapes).
func TestQuickCollectivesSemantics(t *testing.T) {
	f := func(nRaw, rootRaw, sitesRaw uint8) bool {
		n := int(nRaw%40) + 1
		root := int(rootRaw) % n
		sites := int(sitesRaw%5) + 1
		if sites > n {
			sites = n
		}
		pl := blockPlacement(n, sites)

		b, err := BinomialBroadcast(n, root, 8)
		if err != nil {
			return false
		}
		if countAll(propagate(b, root)) != n {
			return false
		}
		hb, err := HierarchicalBroadcast(pl, root, 8)
		if err != nil {
			return false
		}
		if countAll(propagate(hb, root)) != n {
			return false
		}
		ar, err := RecursiveDoublingAllreduce(n, 8)
		if err != nil {
			return false
		}
		for _, c := range gather(ar) {
			if countAll(c) != n {
				return false
			}
		}
		har, err := HierarchicalAllreduce(pl, 8)
		if err != nil {
			return false
		}
		for _, c := range gather(har) {
			if countAll(c) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Validate checks endpoint ranges, self-sends and message sizes: the
// schedule invariant every constructor's tests assert.
func (s *Schedule) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("collectives: schedule over %d ranks", s.N)
	}
	for r, round := range s.Rounds {
		for _, m := range round {
			if m.Src < 0 || m.Src >= s.N || m.Dst < 0 || m.Dst >= s.N {
				return fmt.Errorf("collectives: round %d endpoint out of range: %d→%d", r, m.Src, m.Dst)
			}
			if m.Src == m.Dst {
				return fmt.Errorf("collectives: round %d self-send on rank %d", r, m.Src)
			}
			if m.Bytes < 0 {
				return fmt.Errorf("collectives: round %d negative size", r)
			}
		}
	}
	return nil
}
