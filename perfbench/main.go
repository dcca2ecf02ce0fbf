// Command perfbench is the repository's end-to-end benchmark. It drives
// the public peepul API through three workloads, checks that every
// replica ends up correct, and prints its metrics as one JSON line:
//
//	cd perfbench && go build -o ../.bench_build/perfbench . && cd ..
//	.bench_build/perfbench --workload cart --seed 1 --seconds 15 --trace 0
//
// (run.py does exactly this, keeping every build and data file under
// .bench_build). The workloads are:
//
//   - cart: one durable node holding an OR-set, two closed-loop clients
//     issuing 80% Do add/remove and 20% State reads. The local write
//     path dominates: MRDT Do, encode, SHA-256, delta.Make and append.
//   - chat-sync: two durable nodes with 16 mergeable-log channels over
//     loopback TCP; each round appends a burst on both and calls
//     SyncWith once, and the run ends with a fresh node cold-joining.
//     Diverged multi-object sync dominates.
//   - mesh-fanout: three in-memory nodes in a full mesh, an open-loop
//     generator writing ~100 PN-counter increments/s, and Watch+State
//     observers timing when each write becomes visible on the peers.
//     Push-on-commit, anti-entropy and the node's sync lock dominate.
//
// With --trace 0 the final line carries the end-to-end metrics every
// workload shares: BENCHMARK.json may only list metrics that every
// workload reports and that are never 0. The line before it is the full
// report, with the workload-specific metrics (sync and lag percentiles,
// join and reopen times, wire and disk bytes), the other latency
// percentiles, the environment and every correctness check. Latencies
// are medians over consecutive chunks of a run, so a burst of
// interference on the machine moves one chunk, not the figure. heap_mb is
// read where the work done is fixed: after set-up in the closed loops
// (whose later heap grows with their throughput), after the drain in
// mesh-fanout.
//
// With --trace 1 the run measures half its time untraced and half,
// from a fresh identical set-up, through timing decorators at the
// layers' public seams; it writes the spans to a file, and the final line
// carries the per-layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type def struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with --trace 0, the
// end_to_end list of BENCHMARK.json.
var endToEnd = []def{
	{"setup_s", "s"},
	{"write_us_p50", "us"},
	{"read_us_p50", "us"},
	{"ops_per_s", "ops/s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1, the
// per_layer list of BENCHMARK.json. A layer a workload never calls
// reads 0.
var perLayer = []def{
	{"orset.do_ns", "ns"},
	{"mlog.do_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.encode_bytes", "B"},
	{"wire.decode_ns", "ns"},
	{"store.apply_self_ns", "ns"},
	{"store.head_ns_p99", "ns"},
	{"store.delta_share", "ratio"},
	{"store.packed_ratio", "ratio"},
	{"store.open_ns", "ns"},
	{"delta.make_ns", "ns"},
	{"delta.patch_bytes", "B"},
	{"disk.append_ns", "ns"},
	{"disk.flush_ns", "ns"},
	{"disk.fsyncs_per_write", "count"},
	{"disk.records_per_write", "count"},
	{"disk.bytes_per_write", "B"},
	{"disk.open_ns", "ns"},
	{"disk.recovered_records", "count"},
	{"wire.read_wait_ns", "ns"},
	{"wire.bytes_per_sync", "B"},
	{"wire.reads_per_sync", "count"},
	{"mlog.merge_ns", "ns"},
	{"mlog.merges_per_sync", "count"},
	{"recon.ranges_per_sync", "count"},
	{"replica.commits_per_sync", "count"},
	{"replica.redundant_commits", "count"},
	{"replica.patch_share", "ratio"},
	{"wire.read_wait_ns_join", "ns"},
	{"wire.bytes_per_sync_join", "B"},
	{"wire.reads_per_sync_join", "count"},
	{"wire.decode_ns_join", "ns"},
	{"mlog.merge_ns_join", "ns"},
	{"mlog.merges_per_sync_join", "count"},
	{"recon.ranges_per_sync_join", "count"},
	{"replica.commits_per_sync_join", "count"},
	{"replica.redundant_commits_join", "count"},
	{"replica.patch_share_join", "ratio"},
	{"mesh.pushes_per_write", "count"},
	{"mesh.rounds_per_s", "1/s"},
	{"mesh.failures_per_write", "count"},
	{"wire.conn_ns", "ns"},
	{"replica.sessions_per_write", "count"},
	{"recon.ranges_per_session", "count"},
	{"counter.merge_ns", "ns"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

// reported are the further metrics every workload's report carries: the
// latency percentiles that do not repeat within the bounds on every
// workload, and the failed share.
var reported = []def{
	{"write_us_p90", "us"},
	{"write_us_p95", "us"},
	{"write_us_p99", "us"},
	{"read_us_p90", "us"},
	{"read_us_p95", "us"},
	{"read_us_p99", "us"},
	{"failed_ratio", "fraction"},
}

// workload is one benchmark scenario. run measures for cfg.seconds (split
// untraced/traced with cfg.trace) and fills res; an error means the run
// could not be carried out at all.
type workload struct {
	name  string
	fsync string
	// only are the report metrics specific to this workload.
	only []def
	run  func(cfg config, res *result) error
}

var workloads = []workload{
	{"cart", "never", []def{{"disk_bytes_per_op", "B"}, {"reopen_ms", "ms"}}, runCart},
	{"chat-sync", "never", []def{{"disk_bytes_per_op", "B"}, {"sync_ms_p50", "ms"}, {"sync_ms_p99", "ms"},
		{"wire_bytes_per_write", "B"}, {"join_ms", "ms"}}, runChatSync},
	{"mesh-fanout", "none (in-memory)", []def{{"wire_bytes_per_write", "B"}, {"lag_ms_p50", "ms"}, {"lag_ms_p99", "ms"},
		{"loadgen.late_ms_p99", "ms"}}, runMeshFanout},
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory for node storage, created empty
	out     string // where span files go
	toy     bool   // toy sizes for the self-test
}

// measured returns the length of one measured phase: the whole run, or
// half of it when the traced half follows.
func (c config) measured() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is the contract's last line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full run record printed before the last line.
type report struct {
	Workload string            `json:"workload"`
	Env      map[string]string `json:"env"`
	Metrics  map[string]metric `json:"metrics"`
	Checks   []check           `json:"checks"`
}

// execute runs w and returns the full report and the contract line.
func execute(w workload, cfg config, env map[string]string) (report, outcome, error) {
	res := newResult()
	if err := w.run(cfg, res); err != nil {
		return report{}, outcome{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if res.attempted > 0 {
		res.set("failed_ratio", float64(res.failed)/float64(res.attempted), "fraction")
	}
	out := outcome{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	for _, d := range list {
		m, ok := res.metrics[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out.Metrics[d.name] = m
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	return report{Workload: w.name, Env: env, Metrics: res.metrics, Checks: res.checks}, out, nil
}

func environment(w workload, seed int64, rev string) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"git_rev":    rev,
		"seed":       fmt.Sprint(seed),
		"workload":   w.name,
		"fsync":      w.fsync,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: cart, chat-sync or mesh-fanout")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("dir", "", "empty scratch directory for node storage (required)")
	out := flag.String("out", "", "directory for span and report files (default: -dir)")
	rev := flag.String("rev", "unknown", "git revision recorded in the environment")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *dir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cart|chat-sync|mesh-fanout --seed N --seconds S --trace 0|1 --dir DIR")
		return 2
	}
	if *out == "" {
		*out = *dir
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: *dir, out: *out}
	rep, res, err := execute(w, cfg, environment(w, *seed, *rev))
	if err == nil {
		err = emit(rep, res, filepath.Join(*out, fmt.Sprintf("report-%s-trace%d.json", w.name, *trace)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// emit saves the report to path and prints it, then the result line.
func emit(rep report, res outcome, path string) error {
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	fmt.Println(string(full))
	fmt.Println(string(last))
	return nil
}
