package store

// Store-layer observability: the write path split into stages, merge
// and pull latency, LCA walk effort, and the hit ratios of the two
// caches that make deep histories cheap (the decoded-state LRU and the
// one-slot reassembly cache). All instruments hang off an optional
// obs.Registry handed in with WithObs; without one s.metrics stays nil
// and every instrumented site pays a single nil check. Instruments are
// looked up by name, so several stores on one node (one per replicated
// object) share the same series.

import (
	"time"

	"repro/internal/obs"
)

// The stages of one Apply, in order. Each is timed from the end of the
// one before, so together they cover Apply under the store lock.
const (
	stageDo      = iota // load the head state and run the data type's Do
	stageEncode         // codec encode of the new state
	stageHash           // SHA-256 content address
	stageDelta          // chain the state against its parent (delta.Make)
	stagePersist        // install the objects, commit and branch; flush
	numStages
)

var stageNames = [numStages]string{"do", "encode", "hash", "delta", "persist"}

// stageBuckets resolve the microsecond-scale stages of a write, which
// the canned latency layout would lump into its first 50µs bucket.
var stageBuckets = []int64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, // 1µs .. 250µs
	1_000_000, 10_000_000, 100_000_000, // 1ms .. 100ms
}

type storeMetrics struct {
	applyNs   [numStages]*obs.Histogram
	pullNs    *obs.Histogram
	mergeNs   *obs.Histogram
	lcaSteps  *obs.Counter
	cacheHit  *obs.Counter
	cacheMiss *obs.Counter
	reasmHit  *obs.Counter
	reasmMiss *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	if reg == nil {
		return nil
	}
	m := &storeMetrics{
		pullNs:    reg.Histogram("peepul_store_pull_ns", obs.LatencyBuckets),
		mergeNs:   reg.Histogram("peepul_store_merge_ns", obs.LatencyBuckets),
		lcaSteps:  reg.Counter("peepul_store_lca_steps_total"),
		cacheHit:  reg.Counter("peepul_store_state_cache_total", "result", "hit"),
		cacheMiss: reg.Counter("peepul_store_state_cache_total", "result", "miss"),
		reasmHit:  reg.Counter("peepul_store_reassembly_total", "result", "hit"),
		reasmMiss: reg.Counter("peepul_store_reassembly_total", "result", "miss"),
	}
	for i, name := range stageNames {
		m.applyNs[i] = reg.Histogram("peepul_store_apply_ns", stageBuckets, "stage", name)
	}
	reg.Describe("peepul_store_apply_ns", "wall time of one Apply stage: do, encode, hash, delta, persist")
	reg.Describe("peepul_store_pull_ns", "wall time of one branch pull, merge base to head move")
	reg.Describe("peepul_store_merge_ns", "wall time of one three-way data type merge commit")
	reg.Describe("peepul_store_lca_steps_total", "commits popped by paint-down-to-common LCA walks")
	reg.Describe("peepul_store_state_cache_total", "decoded-state LRU lookups by result")
	reg.Describe("peepul_store_reassembly_total", "pack chain reassemblies short-circuited by the one-slot cache vs walked")
	return m
}

// applyClock times the stages of one Apply. Its zero value, handed out
// when no registry is attached, reads no clock.
type applyClock struct {
	ns   *[numStages]*obs.Histogram
	last time.Time
}

func (m *storeMetrics) applyClock() applyClock {
	if m == nil {
		return applyClock{}
	}
	return applyClock{ns: &m.applyNs, last: time.Now()}
}

// lap observes the time since the previous lap as stage's duration. A
// nil clock (a state written outside Apply) is a no-op.
func (c *applyClock) lap(stage int) {
	if c == nil || c.ns == nil {
		return
	}
	now := time.Now()
	c.ns[stage].Observe(now.Sub(c.last).Nanoseconds())
	c.last = now
}
