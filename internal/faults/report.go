package faults

import (
	"fmt"
	"strings"

	"geoprocmap/internal/units"
)

// Report is the structured fault accounting a fault-aware simulation or
// calibration run produces instead of an optimistic time: what failed, how
// often senders retried, and how long they sat blocked. Every field is
// filled deterministically, so same seed + same schedule ⇒ an identical
// Report.
type Report struct {
	// Schedule names the schedule that was active.
	Schedule string
	// Messages is the number of messages (or probes) observed.
	Messages int
	// Retries counts retransmissions and backoff probes beyond each
	// message's first attempt.
	Retries int
	// Dropped counts messages abandoned after blocking a full deadline on
	// a link that never recovered in time.
	Dropped int
	// BlockedSeconds is the total simulated time senders spent blocked on
	// dead links or waiting out retransmission backoff.
	BlockedSeconds units.Seconds
	// DeadSites lists sites that were in outage at any point of the run,
	// ascending.
	DeadSites []int
	// DegradedPairs lists directed site pairs that saw any link fault
	// (down, degraded bandwidth, latency spike, or loss), ordered.
	DegradedPairs [][2]int
}

// Empty reports whether the run saw no fault effects at all.
func (r *Report) Empty() bool {
	return r == nil || (r.Retries == 0 && r.Dropped == 0 && r.BlockedSeconds == 0 &&
		len(r.DeadSites) == 0 && len(r.DegradedPairs) == 0)
}

// String renders a one-paragraph human summary.
func (r *Report) String() string {
	if r == nil {
		return "fault report: none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault report (%s): %d messages, %d retries, %d dropped, %.2fs blocked",
		r.Schedule, r.Messages, r.Retries, r.Dropped, r.BlockedSeconds.Float())
	if len(r.DeadSites) > 0 {
		fmt.Fprintf(&b, "; dead sites %v", r.DeadSites)
	}
	if len(r.DegradedPairs) > 0 {
		fmt.Fprintf(&b, "; %d degraded site pairs", len(r.DegradedPairs))
	}
	return b.String()
}
