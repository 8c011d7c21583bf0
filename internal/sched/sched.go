// Package sched is the mapping engine's scheduler: one bounded claim queue
// and the persistent worker pool that claims from it. Batch mode
// (core.Mapper.Run), the streaming pipeline (pipeline.Run) and the serving
// session (pipeline.Session) all run on this pool; they differ only in how
// batches enter the queue.
//
// The queue implements the three policies the miniGiraffe paper studies
// (§V, §VII-B): an OpenMP-style dynamic schedule (the proxy's default),
// static partitioning, and the paper's in-house work stealing, where the
// work is split evenly and idle workers steal batches from other workers'
// backlogs round-robin. Batch size is one of the three autotuning
// parameters.
package sched

import "fmt"

// Kind selects a scheduling policy.
type Kind int

// The supported policies.
const (
	// Dynamic mimics OpenMP's dynamic schedule: one shared FIFO hands out
	// batches in order.
	Dynamic Kind = iota
	// WorkStealing pins batches to workers like Static; idle workers steal
	// the oldest batch from others' backlogs, round-robin.
	WorkStealing
	// Static pins every batch to one worker, no load balancing.
	Static
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Dynamic:
		return "openmp-dynamic"
	case WorkStealing:
		return "work-stealing"
	case Static:
		return "static"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a policy name (as used on the command line).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "openmp-dynamic", "dynamic", "omp":
		return Dynamic, nil
	case "work-stealing", "ws", "steal":
		return WorkStealing, nil
	case "static":
		return Static, nil
	default:
		return 0, fmt.Errorf("sched: unknown scheduler %q", s)
	}
}

// DefaultBatchSize is Giraffe's default batch size.
const DefaultBatchSize = 512

// Stats reports per-run scheduling behaviour.
type Stats struct {
	// Processed[w] counts items executed by worker w.
	Processed []int64
	// Steals counts successful steal operations (work-stealing only).
	Steals int64
}

// Imbalance returns max/mean of per-worker processed counts (1 = perfect).
func (s Stats) Imbalance() float64 {
	if len(s.Processed) == 0 {
		return 1
	}
	var max, sum int64
	for _, p := range s.Processed {
		sum += p
		if p > max {
			max = p
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.Processed))
	return float64(max) / mean
}
