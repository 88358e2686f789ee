package trace

import (
	"fmt"
	"slices"
	"strings"
)

// Item is one node of a compressed trace: either a leaf event repeated
// Repeat times, or a loop whose Body repeats Repeat times. Exactly one of
// Event/Body is set.
type Item struct {
	Repeat int
	Event  *Event // leaf: a single message, repeated
	Body   []Item // loop: a nested sequence, repeated
}

// Compressed is the loop-structured form of one process's event stream,
// mirroring how CYPRESS stores iterative communication compactly.
type Compressed struct {
	Items []Item
	// RawLen is the number of events in the original stream.
	RawLen int
}

// Size returns the number of nodes in the compressed representation — the
// storage cost, to compare against RawLen.
func (c *Compressed) Size() int { return sizeItems(c.Items) }

func sizeItems(items []Item) int {
	n := 0
	for _, it := range items {
		n++
		if it.Body != nil {
			n += sizeItems(it.Body)
		}
	}
	return n
}

// Ratio returns RawLen / Size, the compression factor (1 means none).
func (c *Compressed) Ratio() float64 {
	s := c.Size()
	if s == 0 {
		return 1
	}
	return float64(c.RawLen) / float64(s)
}

// String renders the loop structure, e.g. "12×[→1 43KB; →8 83KB]".
func (c *Compressed) String() string {
	var b strings.Builder
	writeItems(&b, c.Items)
	return b.String()
}

func writeItems(b *strings.Builder, items []Item) {
	for i, it := range items {
		if i > 0 {
			b.WriteString("; ")
		}
		if it.Repeat != 1 {
			fmt.Fprintf(b, "%d×", it.Repeat)
		}
		if it.Event != nil {
			fmt.Fprintf(b, "→%d %dB", it.Event.Dst, it.Event.Bytes)
		} else {
			b.WriteString("[")
			writeItems(b, it.Body)
			b.WriteString("]")
		}
	}
}

// MaxLoopWindow bounds the loop-body length the compressor searches for.
// Communication loops in the paper's workloads touch at most a few
// distinct neighbors per iteration, so a modest window suffices.
const MaxLoopWindow = 32

// Compress folds repeated message patterns in a single process's event
// stream into nested loops. The algorithm scans left to right; at each
// position it looks for the window w ≤ MaxLoopWindow whose immediate
// repetition covers the most events, folds it into a loop (compressing the
// body recursively), and continues. Identical adjacent events become
// repeated leaves. Events compare by (Dst, Bytes, Tag) — the source is
// fixed within one process stream.
func Compress(events []Event) *Compressed {
	return &Compressed{Items: compressSeq(events, 0), RawLen: len(events)}
}

func eventsEqual(a, b Event) bool {
	return a.Dst == b.Dst && a.Bytes == b.Bytes && a.Tag == b.Tag
}

// compressSeq compresses one sequence. depth guards against pathological
// recursion (bodies are strictly shorter, but be explicit).
func compressSeq(events []Event, depth int) []Item {
	var items []Item
	i := 0
	for i < len(events) {
		bestW, bestReps := 0, 0
		maxW := MaxLoopWindow
		if rem := (len(events) - i) / 2; rem < maxW {
			maxW = rem
		}
		for w := 1; w <= maxW; w++ {
			reps := 1
			for {
				start := i + reps*w
				if start+w > len(events) {
					break
				}
				match := true
				for k := 0; k < w; k++ {
					if !eventsEqual(events[i+k], events[start+k]) {
						match = false
						break
					}
				}
				if !match {
					break
				}
				reps++
			}
			if reps > 1 && reps*w > bestReps*bestW {
				bestW, bestReps = w, reps
			}
		}
		if bestW == 0 {
			// No repetition here; emit a leaf.
			e := events[i]
			items = append(items, Item{Repeat: 1, Event: &e})
			i++
			continue
		}
		if bestW == 1 {
			e := events[i]
			items = append(items, Item{Repeat: bestReps, Event: &e})
		} else {
			var body []Item
			if depth < 8 {
				body = compressSeq(events[i:i+bestW], depth+1)
			} else {
				body = leafItems(events[i : i+bestW])
			}
			items = append(items, Item{Repeat: bestReps, Body: body})
		}
		i += bestW * bestReps
	}
	return items
}

func leafItems(events []Event) []Item {
	out := make([]Item, len(events))
	for i := range events {
		e := events[i]
		out[i] = Item{Repeat: 1, Event: &e}
	}
	return out
}

// CompressAll compresses every process's stream of a recorded run and
// returns the per-process results. One counting pass buckets the events
// by source, keeping each process's events in record order.
func CompressAll(r *Recorder) []*Compressed {
	start := make([]int, r.N()+1)
	for _, e := range r.events {
		start[e.Src+1]++
	}
	for i := 1; i <= r.N(); i++ {
		start[i] += start[i-1]
	}
	bySrc, next := make([]Event, len(r.events)), slices.Clone(start)
	for _, e := range r.events {
		bySrc[next[e.Src]] = e
		next[e.Src]++
	}
	out := make([]*Compressed, r.N())
	for i := range out {
		out[i] = Compress(bySrc[start[i]:start[i+1]])
	}
	return out
}

// MeanRatio returns the average compression ratio across processes.
func MeanRatio(cs []*Compressed) float64 {
	if len(cs) == 0 {
		return 1
	}
	var s float64
	for _, c := range cs {
		s += c.Ratio()
	}
	return s / float64(len(cs))
}
