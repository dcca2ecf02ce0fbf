package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check: what it verified, whether it held, and
// how many client operations it found wrong.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Bad    int64  `json:"bad"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one workload run measured and verified. Attempted
// and failed count client calls: Do, reads, SyncWith, joins and reopens.
// A correctness check that finds k wrong operations adds k to failed.
type result struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	metrics   map[string]metric
	checks    []check
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *result) ops(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// verify records a check; bad is the number of operations it found
// wrong, counted as failed.
func (r *result) verify(name string, bad int64, detail string, args ...any) {
	c := check{Name: name, OK: bad == 0, Bad: bad}
	if bad > 0 {
		c.Detail = fmt.Sprintf(detail, args...)
	}
	r.mu.Lock()
	r.checks = append(r.checks, c)
	r.failed += bad
	r.mu.Unlock()
}

func (r *result) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed != 0 || len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// epoch is the origin of sample timestamps.
var epoch = time.Now()

// sample is one operation: when it completed (since epoch) and how long
// it took.
type sample struct{ end, d time.Duration }

// samples collects latencies. Each client goroutine owns one and the
// workload merges them after the phase, so recording takes no lock.
type samples []sample

// add records an operation that started at start and has just ended.
func (s *samples) add(start time.Time) { s.addSpan(start, time.Now()) }

// addSpan records an operation from start to end.
func (s *samples) addSpan(start, end time.Time) {
	*s = append(*s, sample{end: end.Sub(epoch), d: end.Sub(start)})
}

// quantile returns the q-quantile of the latencies by nearest rank, or 0
// for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func (s samples) quantile(q float64) time.Duration {
	ds := make([]time.Duration, len(s))
	for i, x := range s {
		ds[i] = x.d
	}
	return quantile(ds, q)
}

// maxChunks is how many consecutive chunks a phase's samples are cut
// into for the steady statistics.
const maxChunks = 10

// steady returns the median over consecutive chunks of the samples, in
// completion order, of each chunk's q-quantile. Chunks hold at least ten
// samples beyond the quantile, so there are fewer of them for a high q
// or a short run. A burst of interference on the machine moves one
// chunk's figure, not the median.
func (s samples) steady(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.SortFunc(sorted, func(a, b sample) int { return int(a.end - b.end) })
	k := min(maxChunks, max(1, int(float64(len(sorted))*(1-q)/10)))
	var per []time.Duration
	for c := 0; c < k; c++ {
		per = append(per, sorted[c*len(sorted)/k:(c+1)*len(sorted)/k].quantile(q))
	}
	return median(per)
}

// rate returns the median over maxChunks equal slices of [from, to) of
// the operations per second completed in each.
func rate(from, to time.Time, parts ...samples) float64 {
	span := to.Sub(from) / maxChunks
	if span <= 0 {
		return 0
	}
	counts := make([]float64, maxChunks)
	base := from.Sub(epoch)
	for _, p := range parts {
		for _, x := range p {
			if c := int((x.end - base) / span); c >= 0 && c < maxChunks {
				counts[c]++
			}
		}
	}
	return median(counts) / span.Seconds()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of a non-empty list.
func median[T time.Duration | float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the percentile of the tail metrics outside the steady
// chunked statistics (store.head_ns_p99, loadgen.late_ms_p99).
const tail = 0.99

// heapMB returns the live heap in MB: the median of five readings taken
// right after forced collections 20ms apart, so a buffer that happens to
// be in flight at one instant does not decide the figure.
func heapMB() float64 {
	var live []float64
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		live = append(live, float64(m.HeapAlloc))
	}
	return median(live) / 1e6
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLatency reports the steady median and 90th, 95th and 99th
// percentiles of s as name_p50 ... name_p99; name ends in its unit, _us
// or _ms.
func setLatency(res *result, name string, s samples) {
	unit := name[strings.LastIndex(name, "_")+1:]
	conv := us
	if unit == "ms" {
		conv = ms
	}
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p50", 0.5}, {"_p90", 0.9}, {"_p95", 0.95}, {"_p99", 0.99}} {
		res.set(name+q.suffix, conv(s.steady(q.q)), unit)
	}
}
