// Command perfbench is the repository benchmark: four workloads driven
// through the public entry points of dbpack, server, shard, search and the
// genomedsm.Compare facade, each reporting the end-to-end metrics of
// BENCHMARK.json with every timed answer's correctness checked, and a
// separate traced mode that replays each operation layer by layer for the
// per-layer metrics. See README.md; run it through run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"genomedsm/internal/dispatch"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median. An untraced run is setupReps process lives, each a set-up (which
// calibrates dispatch afresh) followed by a timed segment of
// seconds/setupReps, so one run's figures average over several
// calibrations instead of riding on one; a traced run sets up setupReps
// times and measures on the last.
const setupReps = 8

// clients is the closed-loop client count: the host's 2 cores, and never
// more goroutines or connections than that.
const clients = 2

// workload is one named traffic mix.
type workload struct {
	name string
	// tail is the fixed percentile latency_tail_ms reports: the highest
	// ladder percentile with at least minBeyond samples beyond it at the
	// operation count a run of BENCHMARK.json's run_seconds gives.
	tail float64
	run  func(rc *runCtx) (*outcome, error)
}

var workloads = []workload{
	{name: "serve_noise", tail: 0.95, run: runServeNoise},
	{name: "serve_homolog_sharded", tail: 0.9, run: runServeHomolog},
	{name: "oneshot_reads", tail: 0.8, run: runOneshot},
	{name: "pairwise_dsm", tail: 0.8, run: runPairwise},
}

// runCtx carries one invocation's settings.
type runCtx struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory inside the checkout, removed at exit
	tr      *tracer
	log     func(format string, args ...any)
}

func (rc *runCtx) deadline(start time.Time) time.Time { return start.Add(rc.seconds) }

// outcome is what a workload measured.
type outcome struct {
	setup      []float64 // seconds per set-up
	load       loadStats
	wall       float64 // seconds of the timed phase
	heap       uint64  // live heap after the first set-up, bytes
	alloc      uint64  // bytes allocated during the timed phase
	verified   int     // answers checked against the reference
	mismatches int
	layers     map[string]float64 // traced mode only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "timed phase length")
		trace   = flag.Int("trace", 0, "1 = traced replay for the per-layer metrics")
		work    = flag.String("work", ".bench_build", "scratch directory for packs and span files")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the metadata")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *work, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, work, commit string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{
		seed: seed, seconds: time.Duration(seconds * float64(time.Second)), traced: traced, dir: dir,
		log: func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) },
	}
	if traced {
		rc.tr = newTracer()
	}
	cpu0 := hostCPU()
	out, err := wl.run(rc)
	if err != nil {
		return err
	}
	printMeta(rc, wl, commit)
	if cpu0 != nil {
		if cpu1 := hostCPU(); cpu1 != nil {
			rc.log("host cpu during the run: %s", cpuShares(cpu0, cpu1))
		}
	}

	line := resultLine{
		Correct:   out.mismatches == 0,
		Attempted: out.load.attempted,
		Failed:    out.load.failed,
		Metrics:   map[string]metric{},
	}
	rc.log("samples %d requests, %d operations, %d failed, %d answers verified, %d mismatches",
		len(out.load.lat), out.load.attempted, out.load.failed, out.verified, out.mismatches)
	rc.log("error_rate %.6f ratio", errorRate(&out.load))
	if traced {
		sums := summarize(rc.tr.spans)
		printSummary(os.Stdout, sums)
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := writeSpans(path, rc.tr.spans, sums); err != nil {
			return err
		}
		rc.log("spans written to %s", path)
		for _, m := range perLayer {
			v, ok := out.layers[m.name]
			if !ok {
				rc.log("layer %s not on this workload's path (reported as 0)", m.name)
			}
			line.Metrics[m.name] = metric{v, m.unit}
		}
	} else {
		n := len(out.load.lat)
		rc.log("latency_tail_ms is p%g of %d samples (%d beyond; rule needs %d; at this count it would pick p%g)",
			wl.tail*100, n, beyond(wl.tail, n), minBeyond, tailPercentile(n)*100)
		if beyond(wl.tail, n) < minBeyond {
			rc.log("WARNING: too few samples beyond p%g for the tail rule", wl.tail*100)
		}
		for k, v := range endToEnd(out, wl.tail) {
			line.Metrics[k] = v
		}
	}
	keys := make([]string, 0, len(line.Metrics))
	for k := range line.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rc.log("metric %-40s %14.6f %s", k, line.Metrics[k].Value, line.Metrics[k].Unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if out.mismatches > 0 {
		return errors.New("answers failed verification")
	}
	return nil
}

func errorRate(s *loadStats) float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// endToEnd derives the BENCHMARK.json end-to-end metrics of an untraced
// run. error_rate is printed above and carried exactly by the result
// line's attempted and failed counts.
func endToEnd(o *outcome, tail float64) map[string]metric {
	lat := o.load.lat
	ops := max(o.load.attempted, 1)
	return map[string]metric{
		"setup_s":         {median(o.setup), "s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_tail_ms": {percentile(lat, tail), "ms"},
		"ops_per_s":       {float64(o.load.answered()) / o.wall, "1/s"},
		"mcups":           {float64(o.load.cells) / o.wall / 1e6, "Mcells/s"},
		"heap_mb":         {float64(o.heap) / 1e6, "MB"},
		"alloc_mb_per_op": {float64(o.alloc) / float64(ops) / 1e6, "MB"},
	}
}

// printMeta records the host and run settings with every result.
func printMeta(rc *runCtx, wl *workload, commit string) {
	meta := map[string]any{
		"workload":   wl.name,
		"seed":       rc.seed,
		"seconds":    rc.seconds.Seconds(),
		"traced":     rc.traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"commit":     commit,
		"clients":    clients,
	}
	b, _ := json.Marshal(meta) // plain map of strings and numbers
	rc.log("meta %s", b)
	prof := dispatch.Host()
	rows := make([]string, 0, len(prof.Families))
	for _, r := range prof.TableRows() {
		rows = append(rows, fmt.Sprintf("%s=%sMc/s+%sns", r[0], r[1], r[2]))
	}
	rc.log("dispatch profile host=%s build=%s %s", prof.Host, prof.Build, strings.Join(rows, " "))
}

// hostCPU returns the host's cumulative CPU tick counters (user, nice,
// system, idle, iowait, irq, softirq, steal), or nil where the kernel does
// not expose them. Steal is time the hypervisor gave to other guests: on a
// shared VM it shows when a run's spread comes from the host.
func hostCPU() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, 8)
	for i := range out {
		if out[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return nil
		}
	}
	return out
}

// cpuShares renders the busy, idle and steal shares between two hostCPU
// readings.
func cpuShares(a, b []int64) string {
	d := make([]float64, len(a))
	var total float64
	for i := range a {
		d[i] = float64(b[i] - a[i])
		total += d[i]
	}
	if total == 0 {
		return "no ticks"
	}
	busy := d[0] + d[1] + d[2] + d[5] + d[6]
	return fmt.Sprintf("busy %.1f%%, idle %.1f%%, steal %.1f%%", 100*busy/total, 100*(d[3]+d[4])/total, 100*d[7]/total)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "model name") {
			if i := strings.Index(l, ":"); i >= 0 {
				return strings.TrimSpace(l[i+1:])
			}
		}
	}
	return "unknown"
}

// lives runs the untraced measurement as setupReps process lives: each
// sets the system up (timed for setup_s), collects garbage, runs one
// timed segment up to its deadline, and tears down. heap_mb is the live
// heap after the first set-up. Only the segments
// count toward the wall time and the allocations.
func lives(rc *runCtx, out *outcome, setup func() (teardown func() error, secs float64, err error), segment func(deadline time.Time) error) error {
	for rep := 0; rep < setupReps; rep++ {
		teardown, secs, err := setup()
		if err != nil {
			return err
		}
		out.setup = append(out.setup, secs)
		// Later lives' heaps also hold the answers kept for verification.
		if heap := liveHeap(); rep == 0 {
			out.heap = heap
		}
		m0 := memNow()
		ops0, start := out.load.attempted, time.Now()
		err = segment(start.Add(rc.seconds / setupReps))
		wall := time.Since(start).Seconds()
		out.wall += wall
		out.alloc += memNow().TotalAlloc - m0.TotalAlloc
		rc.log("life %d: set-up %.4f s, %d operations in %.3f s (%.3f/s)",
			rep, secs, out.load.attempted-ops0, wall, float64(out.load.attempted-ops0)/wall)
		if e := teardown(); err == nil {
			err = e
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// memNow returns the allocation counters the metrics difference.
func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeap forces a collection and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return memNow().HeapAlloc
}

// resetCalibration makes the next dispatch.Host() call calibrate again,
// so every set-up pays what a fresh process pays.
func resetCalibration() { dispatch.SetHostProfile(nil) }
