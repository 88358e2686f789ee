// Package collectives builds communication schedules for MPI-style
// collective operations, both topology-oblivious (binomial trees,
// recursive doubling, rings) and topology-aware hierarchical variants in
// the spirit of MagPIe (Kielmann et al., PPoPP'99 — cited by the paper as
// the classic answer to slow wide-area links).
//
// A Schedule is a sequence of rounds; the messages of one round are
// concurrent and rounds execute in order. Schedules convert to tagged
// trace events, so the netsim engines can time them under any process
// placement — which is how the hierarchical variants demonstrate their
// point: once the mapper has colocated processes, a site-leader hierarchy
// crosses each WAN link O(1) times instead of O(log n).
package collectives

import (
	"fmt"

	"geoprocmap/internal/trace"
)

// Message is one transfer within a round.
type Message struct {
	Src, Dst int
	Bytes    int64
}

// Schedule is an ordered sequence of communication rounds over n ranks.
type Schedule struct {
	N      int
	Rounds [][]Message
}

// Events flattens the schedule into trace events whose tags encode the
// round index (offset by baseTag), so netsim's phase grouping and replay
// preserve round ordering.
func (s *Schedule) Events(baseTag int) []trace.Event {
	var out []trace.Event
	for r, round := range s.Rounds {
		for _, m := range round {
			out = append(out, trace.Event{Src: m.Src, Dst: m.Dst, Bytes: m.Bytes, Tag: baseTag + r})
		}
	}
	return out
}

// addRound appends a round, dropping empty ones.
func (s *Schedule) addRound(round []Message) {
	if len(round) > 0 {
		s.Rounds = append(s.Rounds, round)
	}
}

// --- flat (topology-oblivious) algorithms --------------------------------

func checkArgs(n, root int, bytes int64) error {
	if n <= 0 {
		return fmt.Errorf("collectives: %d ranks", n)
	}
	if root < 0 || root >= n {
		return fmt.Errorf("collectives: root %d out of range [0,%d)", root, n)
	}
	if bytes < 0 {
		return fmt.Errorf("collectives: negative payload")
	}
	return nil
}

// BinomialBroadcast returns the ⌈log2 n⌉-round binomial-tree broadcast of
// bytes from root.
func BinomialBroadcast(n, root int, bytes int64) (*Schedule, error) {
	if err := checkArgs(n, root, bytes); err != nil {
		return nil, err
	}
	s := &Schedule{N: n}
	for span := 1; span < n; span *= 2 {
		var round []Message
		for vr := 0; vr < span && vr+span < n; vr++ {
			src := (vr + root) % n
			dst := (vr + span + root) % n
			round = append(round, Message{Src: src, Dst: dst, Bytes: bytes})
		}
		s.addRound(round)
	}
	return s, nil
}

// BinomialReduce returns the binomial-tree reduction of bytes to root —
// the mirror image of BinomialBroadcast.
func BinomialReduce(n, root int, bytes int64) (*Schedule, error) {
	bcast, err := BinomialBroadcast(n, root, bytes)
	if err != nil {
		return nil, err
	}
	s := &Schedule{N: n}
	for r := len(bcast.Rounds) - 1; r >= 0; r-- {
		round := make([]Message, len(bcast.Rounds[r]))
		for i, m := range bcast.Rounds[r] {
			round[i] = Message{Src: m.Dst, Dst: m.Src, Bytes: bytes}
		}
		s.addRound(round)
	}
	return s, nil
}

// RecursiveDoublingAllreduce returns the recursive-doubling allreduce: the
// full payload is exchanged pairwise at XOR distances 1, 2, 4, …; ranks
// beyond the largest power of two fold in before and unfold after.
func RecursiveDoublingAllreduce(n int, bytes int64) (*Schedule, error) {
	if err := checkArgs(n, 0, bytes); err != nil {
		return nil, err
	}
	s := &Schedule{N: n}
	pow := 1
	for pow*2 <= n {
		pow *= 2
	}
	var fold []Message
	for i := pow; i < n; i++ {
		fold = append(fold, Message{Src: i, Dst: i - pow, Bytes: bytes})
	}
	s.addRound(fold)
	for span := 1; span < pow; span *= 2 {
		var round []Message
		for i := 0; i < pow; i++ {
			partner := i ^ span
			if partner < pow {
				round = append(round, Message{Src: i, Dst: partner, Bytes: bytes})
			}
		}
		s.addRound(round)
	}
	var unfold []Message
	for i := pow; i < n; i++ {
		unfold = append(unfold, Message{Src: i - pow, Dst: i, Bytes: bytes})
	}
	s.addRound(unfold)
	return s, nil
}

// RingAllreduce returns the bandwidth-optimal ring allreduce:
// a reduce-scatter pass followed by an allgather pass, 2(n−1) rounds of
// ⌈bytes/n⌉-sized chunks around the ring.
func RingAllreduce(n int, bytes int64) (*Schedule, error) {
	if err := checkArgs(n, 0, bytes); err != nil {
		return nil, err
	}
	s := &Schedule{N: n}
	if n == 1 {
		return s, nil
	}
	chunk := (bytes + int64(n) - 1) / int64(n)
	for pass := 0; pass < 2; pass++ {
		for step := 0; step < n-1; step++ {
			round := make([]Message, 0, n)
			for i := 0; i < n; i++ {
				round = append(round, Message{Src: i, Dst: (i + 1) % n, Bytes: chunk})
			}
			s.addRound(round)
		}
	}
	return s, nil
}

// --- hierarchical (topology-aware) algorithms -----------------------------

// hierarchy derives the per-site member lists and leaders from a process
// placement (leader = lowest rank at each site).
func hierarchy(placement []int) (members map[int][]int, leaders []int, err error) {
	if len(placement) == 0 {
		return nil, nil, fmt.Errorf("collectives: empty placement")
	}
	members = map[int][]int{}
	for rank, site := range placement {
		if site < 0 {
			return nil, nil, fmt.Errorf("collectives: rank %d has negative site", rank)
		}
		members[site] = append(members[site], rank)
	}
	for site := 0; site <= maxKey(members); site++ {
		if m, ok := members[site]; ok {
			leaders = append(leaders, m[0])
		}
	}
	return members, leaders, nil
}

func maxKey(m map[int][]int) int {
	max := 0
	for k := range m {
		if k > max {
			max = k
		}
	}
	return max
}

// mapSchedule rewrites a schedule built over a compact rank list into
// global ranks and appends its rounds to dst.
func mapSchedule(dst *Schedule, sub *Schedule, ranks []int) {
	for _, round := range sub.Rounds {
		mapped := make([]Message, len(round))
		for i, m := range round {
			mapped[i] = Message{Src: ranks[m.Src], Dst: ranks[m.Dst], Bytes: m.Bytes}
		}
		dst.addRound(mapped)
	}
}

// HierarchicalReduce reduces bytes to the leader of root's site: binomial
// reductions within every site, then a binomial reduction among site
// leaders rooted at root's site. Each WAN link carries O(1) messages.
func HierarchicalReduce(placement []int, root int, bytes int64) (*Schedule, error) {
	if root < 0 || root >= len(placement) {
		return nil, fmt.Errorf("collectives: root %d out of range", root)
	}
	members, leaders, err := hierarchy(placement)
	if err != nil {
		return nil, err
	}
	s := &Schedule{N: len(placement)}
	// Phase 1: intra-site reductions to each site leader (concurrent
	// across sites — their rounds interleave).
	intra := &Schedule{N: len(placement)}
	maxRounds := 0
	var perSite []*Schedule
	var perSiteRanks [][]int
	for site := 0; site <= maxKey(members); site++ {
		ranks, ok := members[site]
		if !ok || len(ranks) < 2 {
			continue
		}
		sub, err := BinomialReduce(len(ranks), 0, bytes)
		if err != nil {
			return nil, err
		}
		perSite = append(perSite, sub)
		perSiteRanks = append(perSiteRanks, ranks)
		if len(sub.Rounds) > maxRounds {
			maxRounds = len(sub.Rounds)
		}
	}
	for r := 0; r < maxRounds; r++ {
		var round []Message
		for si, sub := range perSite {
			if r >= len(sub.Rounds) {
				continue
			}
			for _, m := range sub.Rounds[r] {
				round = append(round, Message{Src: perSiteRanks[si][m.Src], Dst: perSiteRanks[si][m.Dst], Bytes: m.Bytes})
			}
		}
		intra.addRound(round)
	}
	s.Rounds = append(s.Rounds, intra.Rounds...)

	// Phase 2: reduction among leaders, rooted at root's leader.
	rootLeader := members[placement[root]][0]
	leaderIdx := 0
	for i, l := range leaders {
		if l == rootLeader {
			leaderIdx = i
		}
	}
	if len(leaders) > 1 {
		inter, err := BinomialReduce(len(leaders), leaderIdx, bytes)
		if err != nil {
			return nil, err
		}
		mapSchedule(s, inter, leaders)
	}
	return s, nil
}

// HierarchicalBroadcast broadcasts from root: binomial among site leaders,
// then binomial within every site.
func HierarchicalBroadcast(placement []int, root int, bytes int64) (*Schedule, error) {
	if root < 0 || root >= len(placement) {
		return nil, fmt.Errorf("collectives: root %d out of range", root)
	}
	members, leaders, err := hierarchy(placement)
	if err != nil {
		return nil, err
	}
	s := &Schedule{N: len(placement)}
	// Root hands the payload to its site leader if it is not the leader.
	rootSite := placement[root]
	rootLeader := members[rootSite][0]
	if root != rootLeader {
		s.addRound([]Message{{Src: root, Dst: rootLeader, Bytes: bytes}})
	}
	leaderIdx := 0
	for i, l := range leaders {
		if l == rootLeader {
			leaderIdx = i
		}
	}
	if len(leaders) > 1 {
		inter, err := BinomialBroadcast(len(leaders), leaderIdx, bytes)
		if err != nil {
			return nil, err
		}
		mapSchedule(s, inter, leaders)
	}
	// Intra-site broadcasts, concurrent across sites.
	var perSite []*Schedule
	var perSiteRanks [][]int
	maxRounds := 0
	for site := 0; site <= maxKey(members); site++ {
		ranks, ok := members[site]
		if !ok || len(ranks) < 2 {
			continue
		}
		sub, err := BinomialBroadcast(len(ranks), 0, bytes)
		if err != nil {
			return nil, err
		}
		perSite = append(perSite, sub)
		perSiteRanks = append(perSiteRanks, ranks)
		if len(sub.Rounds) > maxRounds {
			maxRounds = len(sub.Rounds)
		}
	}
	for r := 0; r < maxRounds; r++ {
		var round []Message
		for si, sub := range perSite {
			if r >= len(sub.Rounds) {
				continue
			}
			for _, m := range sub.Rounds[r] {
				round = append(round, Message{Src: perSiteRanks[si][m.Src], Dst: perSiteRanks[si][m.Dst], Bytes: m.Bytes})
			}
		}
		s.addRound(round)
	}
	return s, nil
}

// HierarchicalAllreduce combines bytes across all ranks: intra-site
// reductions, recursive doubling among site leaders, intra-site
// broadcasts. The WAN sees only the leader exchange.
func HierarchicalAllreduce(placement []int, bytes int64) (*Schedule, error) {
	_, leaders, err := hierarchy(placement)
	if err != nil {
		return nil, err
	}
	if bytes < 0 {
		return nil, fmt.Errorf("collectives: negative payload")
	}
	s := &Schedule{N: len(placement)}
	reduceRoot := leaders[0]
	red, err := HierarchicalReduce(placement, reduceRoot, bytes)
	if err != nil {
		return nil, err
	}
	s.Rounds = append(s.Rounds, red.Rounds...)
	bc, err := HierarchicalBroadcast(placement, reduceRoot, bytes)
	if err != nil {
		return nil, err
	}
	s.Rounds = append(s.Rounds, bc.Rounds...)
	return s, nil
}
