// Command perfbench is the crpd end-to-end benchmark. It runs one workload
// against the real daemon (internal/crpdaemon on loopback UDP) or the real
// gossip plane (internal/peering over an in-memory fabric), checks the
// answers, and prints one JSON result line:
//
//	perfbench --workload point_udp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around each call it makes into a layer. README.md explains the workloads
// and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a crpd user sees; every workload reports all of
// them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"query_p50_us", "us", "lower"},
	{"query_p90_us", "us", "lower"},
	{"observe_p50_us", "us", "lower"},
	{"observe_p90_us", "us", "lower"},
	{"sync_p50_ms", "ms", "lower"},
	{"sync_p90_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"crpdaemon.decode_json_us", "us", "lower"},
	{"crpdaemon.decode_bin_us", "us", "lower"},
	{"crpdaemon.encode_json_us", "us", "lower"},
	{"crpdaemon.encode_bin_us", "us", "lower"},
	{"crpdaemon.decode_allocs", "count", "lower"},
	{"crpdaemon.encode_allocs", "count", "lower"},
	{"crpdaemon.request_bytes", "B", "lower"},
	{"crpdaemon.reply_bytes", "B", "lower"},
	{"crpdaemon.handler_us", "us", "lower"},
	{"crpdaemon.wait_us", "us", "lower"},
	{"crpdaemon.rejected", "count", "lower"},
	{"crpdaemon.timeouts", "count", "lower"},
	{"crpdaemon.bad_requests", "count", "lower"},
	{"crp.topk_all_us", "us", "lower"},
	{"crp.topk_cached_us", "us", "lower"},
	{"crp.snapshot_us", "us", "lower"},
	{"crp.shard_rebuilds_per_query", "count", "lower"},
	{"crp.similarity_us", "us", "lower"},
	{"crp.topk_cands_us", "us", "lower"},
	{"crp.observe_agg_us", "us", "lower"},
	{"crp.observe_store_us", "us", "lower"},
	{"crp.digests_us", "us", "lower"},
	{"peering.tick_us", "us", "lower"},
	{"peering.handle_us", "us", "lower"},
	{"peering.datagrams_per_write", "count", "lower"},
	{"peering.bytes_per_write", "B", "lower"},
	{"peering.deltas_sent", "count", "lower"},
	{"peering.deltas_applied", "count", "lower"},
	{"peering.deltas_stale", "count", "lower"},
	{"peering.apply_ratio", "ratio", "higher"},
	{"peering.ticks_per_sync", "count", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"bench.op_self_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// result is what a workload run hands back to main.
type result struct {
	attempted, failed int64
	// checkErr is the first failed output check; nil when every check passed.
	checkErr error
	metrics  map[string]float64
	// info is printed for the record and not gated: p99s with their sample
	// counts, the error ratio, and the trace file.
	info map[string]any
}

// workload is one traffic mix; README.md says why each exists.
type workload struct {
	name  string
	sizes map[string]int
	run   func(options) (*result, error)
}

var workloads = []workload{
	{"point_udp", pointSizes, runPointUDP},
	{"scan_ingest", scanSizes, runScanIngest},
	{"gossip_sync", gossipSizes, runGossipSync},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: point_udp, scan_ingest or gossip_sync")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1}

	res, err := wl.run(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !opts.trace {
			return fmt.Errorf("%s: metric %s not measured", wl.name, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if res.checkErr != nil {
		res.info["check_error"] = res.checkErr.Error()
	}
	res.info["error_ratio"] = ratioF(float64(res.failed), res.attempted)
	printJSON(map[string]any{"meta": hostMeta(wl, opts)})
	printJSON(map[string]any{"report": res.info})
	printJSON(map[string]any{
		"correct":   res.checkErr == nil,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	return nil
}

func printJSON(v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings reach here
	}
	fmt.Println(string(blob))
}

// hostMeta is the host-class block a later comparison needs to refuse
// comparing runs from different machines.
func hostMeta(wl *workload, opts options) map[string]any {
	return map[string]any{
		"workload":   wl.name,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"nproc":      nproc(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"sizes":      wl.sizes,
	}
}

func nproc() int {
	out, err := exec.Command("nproc").Output()
	if err != nil {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(out)))
	if err != nil {
		return -1
	}
	return n
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 7

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2].Seconds()
}

// quantile returns the nearest-rank q-quantile of ns (nanoseconds), sorting
// ns in place.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	i := int(math.Ceil(q*float64(len(ns)))) - 1
	return float64(ns[max(i, 0)])
}

// addLatency records the p50 and p90 of ns (nanoseconds) in unit as
// name_p50_unit and name_p90_unit, with the p99 and the sample count
// beside them for the record.
func addLatency(f map[string]float64, name, unit string, ns []int64) {
	scale := map[string]float64{"us": 1e3, "ms": 1e6}[unit]
	for _, q := range []struct {
		tag string
		q   float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		f[name+"_"+q.tag+"_"+unit] = quantile(ns, q.q) / scale
	}
	f[name+"_samples"] = float64(len(ns))
}

// setFigures stores a window's figures: the gated ones as metrics, the
// p99s and sample counts in the informational report.
func (r *result) setFigures(f map[string]float64) {
	for name, v := range f {
		if strings.HasSuffix(name, "_samples") || strings.Contains(name, "_p99_") {
			r.info[name] = v
		} else {
			r.metrics[name] = v
		}
	}
}

// ratioF is a/b, or 0 when nothing was counted.
func ratioF(a float64, b int64) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}

// overheadPct is how much slower the traced window ran than the untraced
// one, in percent of the traced rate.
func overheadPct(traced, plain float64) float64 {
	if traced == 0 {
		return 0
	}
	return (plain/traced - 1) * 100
}

// heapMB forces a collection and returns the live heap in MB (1e6 bytes).
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memCounters reads the allocation and GC totals a window's go.* metrics
// are differenced from.
func memCounters() (totalAlloc uint64, numGC uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}
