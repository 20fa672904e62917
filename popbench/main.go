// Command popbench is the repository benchmark. It runs one workload in a
// fresh process and prints, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics of a separate traced run with
// -trace 1. Build and run it from the repository root with
//
//	bash popbench/run.sh --workload consensus-counts --seed 1 --seconds 30 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken at package initialization, before main runs; it
// opens every workload's set-up time.
var processStart = time.Now()

// env is what a workload's measure function receives.
type env struct {
	seed    int64
	rounds  int     // fixed rounds of the workload's scenario set
	tr      *tracer // nil when tracing is off
	popsimd string  // built cmd/popsimd binary (popsimd-mix)
	outDir  string
}

// phase is one measured execution of a workload: raw samples, from which
// the end-to-end and per-layer metrics are derived.
type phase struct {
	setup        []float64 // seconds per set-up repetition (median reported)
	preSetup     float64   // seconds from process start to the first repetition
	wall         float64   // seconds of the measured phase
	jobs         []float64 // seconds per job (scenario run or server job)
	interactions int64
	attempted    int
	failed       int                // misses: failed, refused or wrong outcomes
	wrong        int                // outcomes that contradict their check
	rss          []float64          // peak RSS per window, MB
	layer        map[string]float64 // per-layer counts and p50s
	// setupShare and runShare are the shares of the VM's busy CPU time the
	// hypervisor did not steal during set-up and the measured phase; every
	// reported time is scaled by them (see unstolenSince).
	setupShare, runShare float64
}

func (p *phase) miss(format string, args ...any) {
	p.failed++
	fmt.Fprintf(os.Stderr, "popbench: miss: "+format+"\n", args...)
}

func (p *phase) wrongOutcome(format string, args ...any) {
	p.wrong++
	p.failed++
	fmt.Fprintf(os.Stderr, "popbench: WRONG: "+format+"\n", args...)
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// round is the nominal length of one round on the reference host; a
	// run of s seconds measures max(1, round(s/round)) rounds, so the same
	// seed and -seconds give the same inputs on every host and commit.
	round   time.Duration
	measure func(e *env) (*phase, error)
}

var workloads = []workload{
	{name: "consensus-counts", round: 25 * time.Second, measure: measureConsensus},
	{name: "fault-sim", round: 7 * time.Second, measure: measureFaultSim},
	{name: "popsimd-mix", round: 3 * time.Second, measure: measureMix},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("popbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: consensus-counts|fault-sim|popsimd-mix")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "nominal length of the measured phase")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics of a traced run")
	popsimd := fs.String("popsimd", "", "path of the built cmd/popsimd binary")
	outDir := fs.String("out", ".bench_build/popbench", "directory for spans and run records")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traced, *popsimd, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "popbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int, popsimd, outDir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0|1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rounds := max(1, int(math.Round(float64(time.Duration(seconds)*time.Second)/float64(w.round))))
	e := &env{seed: seed, rounds: rounds, popsimd: popsimd, outDir: outDir}
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, seed, traced)

	if traced == 0 {
		ph, err := w.measure(e)
		if err != nil {
			return err
		}
		metrics, samples := endToEnd(ph)
		if err := writeRecord(filepath.Join(outDir, "record-"+tag+".json"), name, seed, rounds, popsimd, ph, samples); err != nil {
			return err
		}
		printEndToEnd(metrics)
		return emit(result{Correct: ph.wrong == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: metrics})
	}

	// Traced run: the same rounds untraced, then traced; the ratio of the
	// two wall times is the tracing overhead.
	e.rounds = max(1, rounds/2)
	base, err := w.measure(e)
	if err != nil {
		return err
	}
	e.tr = newTracer()
	ph, err := w.measure(e)
	if err != nil {
		return err
	}
	if err := e.tr.write(filepath.Join(outDir, "spans-"+tag+".json")); err != nil {
		return err
	}
	layers := perLayer(ph, e.tr, base)
	baseMetrics, samples := endToEnd(base)
	if err := writeRecord(filepath.Join(outDir, "record-"+tag+".json"), name, seed, e.rounds, popsimd, base, samples); err != nil {
		return err
	}
	printLayerTable(layers, e.tr, ph.wall, baseMetrics)
	return emit(result{
		Correct:   base.wrong == 0 && ph.wrong == 0,
		Attempted: base.attempted + ph.attempted,
		Failed:    base.failed + ph.failed,
		Metrics:   layers,
	})
}

// endToEnd derives the end-to-end metrics of an untraced phase, plus the
// sample count behind each.
func endToEnd(ph *phase) (map[string]metric, map[string]int) {
	ok := 0.0
	if ph.attempted > 0 {
		ok = float64(ph.attempted-ph.failed) / float64(ph.attempted)
	}
	wall := ph.wall * ph.runShare
	m := map[string]metric{
		"setup_s":            {(ph.preSetup + median(ph.setup)) * ph.setupShare, "s"},
		"wall_s":             {wall, "s"},
		"interactions_per_s": {float64(ph.interactions) / wall, "1/s"},
		"ok_share":           {ok, "ratio"},
		"peak_rss_mb":        {median(ph.rss), "MB"},
		"job_p50_s":          {quantile(ph.jobs, 0.5) * ph.runShare, "s"},
		"job_p90_s":          {quantile(ph.jobs, 0.9) * ph.runShare, "s"},
	}
	samples := map[string]int{
		"setup_s": len(ph.setup), "wall_s": 1, "interactions_per_s": 1,
		"ok_share": ph.attempted, "peak_rss_mb": len(ph.rss),
		"job_p50_s": len(ph.jobs), "job_p90_s": len(ph.jobs),
	}
	return m, samples
}

// layerSpec names a per-layer metric and its unit.
type layerSpec struct{ name, unit string }

// layerMetrics is the per-layer metric set, in report order. Every traced
// run reports all of them; a layer a workload never calls reads 0.
var layerMetrics = []layerSpec{
	{"popsim.new_system_s", "s"},
	{"engine.counts_run_s", "s"},
	{"engine.batch_run_s", "s"},
	{"engine.vector_run_s", "s"},
	{"engine.observe_s", "s"},
	{"engine.observe_calls", "count"},
	{"engine.interactions", "count"},
	{"sched.batch_runs", "count"},
	{"sched.mean_run_len", "count"},
	{"sched.collisions", "count"},
	{"verify.verify_s", "s"},
	{"verify.pairs", "count"},
	{"sim.phys_per_sim", "ratio"},
	{"adversary.omissions", "count"},
	{"serve.submit_s", "s"},
	{"serve.cold_s", "s"},
	{"serve.hit_s", "s"},
	{"serve.resume_s", "s"},
	{"serve.overhead_s", "s"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.rejected", "count"},
	{"serve.failed", "count"},
	{"serve.checkpoint_bytes", "bytes"},
	{"obs.trace_overhead", "ratio"},
}

// perLayer assembles the per-layer metrics of a traced phase: span self
// times summed per layer, plus the counts and p50s the workload recorded.
func perLayer(ph *phase, tr *tracer, base *phase) map[string]metric {
	vals := make(map[string]float64)
	for layer, lt := range tr.selfTimes() {
		vals[layer] = lt.Self.Seconds()
		if layer == "engine.observe_s" {
			vals["engine.observe_calls"] = float64(lt.Count)
		}
	}
	for k, v := range ph.layer {
		vals[k] = v
	}
	vals["engine.interactions"] = float64(ph.interactions)
	out := make(map[string]metric, len(layerMetrics))
	for _, l := range layerMetrics {
		v := vals[l.name]
		if l.unit == "s" {
			v *= ph.runShare
		}
		out[l.name] = metric{v, l.unit}
	}
	out["obs.trace_overhead"] = metric{ph.wall * ph.runShare / (base.wall * base.runShare), "ratio"}
	return out
}

// printEndToEnd prints the end-to-end metrics, one per line.
func printEndToEnd(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-20s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printLayerTable prints the traced run as one row per per-layer metric:
// self time or value, span/call count, and share of the traced wall time,
// beside the untraced end-to-end results.
func printLayerTable(layers map[string]metric, tr *tracer, wall float64, e2e map[string]metric) {
	self := tr.selfTimes()
	fmt.Printf("%-24s %14s %6s %10s %8s\n", "per-layer (traced)", "value", "unit", "count", "share")
	for _, l := range layerMetrics {
		v := layers[l.name]
		count, share := "", ""
		if lt, ok := self[l.name]; ok {
			count = fmt.Sprint(lt.Count)
			share = fmt.Sprintf("%.1f%%", 100*lt.Self.Seconds()/wall)
		}
		fmt.Printf("%-24s %14.6g %6s %10s %8s\n", l.name, v.Value, v.Unit, count, share)
	}
	fmt.Println("end-to-end (untraced, same rounds):")
	printEndToEnd(e2e)
}

func emit(r result) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// median returns the nearest-rank median.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least a share q of the samples at or below it. Unlike interpolation it
// always reports a measured job, so a p90 over few jobs of distinct sizes
// stays the time of one job class.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

// cpuTicks is the VM's busy and stolen CPU time so far, in clock ticks, from
// the aggregate line of /proc/stat.
type cpuTicks struct{ busy, steal int64 }

func readTicks() (cpuTicks, error) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTicks{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// unstolenSince returns the share of the VM's busy CPU time since t that the
// hypervisor did not steal (1 when nothing ran). On a shared virtual host
// the hypervisor steals 2–30 % of a busy vCPU's time, varying from one run
// to the next, and every stolen tick stretches the benchmark's wall clock.
// Scaling a window's times by this share reports them on the time the VM
// actually ran: on the reference host it held the same seed's fault-sim
// wall_s to 20.0–21.4 s while the raw wall clock read 25.8–31.3 s.
func unstolenSince(t cpuTicks) (float64, error) {
	now, err := readTicks()
	if err != nil {
		return 0, err
	}
	busy, steal := now.busy-t.busy, now.steal-t.steal
	if busy+steal <= 0 {
		return 1, nil
	}
	return float64(busy) / float64(busy+steal), nil
}

// rssWindow is the window of the peak-RSS samples.
const rssWindow = time.Second

// rssSampler records a process's peak resident set per window: every
// interval it reads VmHWM, the kernel's peak-RSS counter, then resets the
// counter through /proc/<pid>/clear_refs. The median window peak is steady
// where the single VmHWM of a whole run rides on garbage-collector timing.
type rssSampler struct {
	pid   string
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// sampleRSS resets the process's VmHWM and starts sampling it.
func sampleRSS(pid int, interval time.Duration) *rssSampler {
	s := &rssSampler{pid: strconv.Itoa(pid), stop: make(chan struct{}), done: make(chan struct{})}
	s.err = s.resetHWM()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for s.err == nil {
			select {
			case <-s.stop:
				s.window()
				return
			case <-tick.C:
				s.window()
			}
		}
	}()
	return s
}

func (s *rssSampler) resetHWM() error {
	return os.WriteFile(filepath.Join("/proc", s.pid, "clear_refs"), []byte("5"), 0)
}

// window records the peak since the last reset and resets it.
func (s *rssSampler) window() {
	mb, err := peakRSSMB(s.pid)
	if err == nil {
		s.peaks = append(s.peaks, mb)
		err = s.resetHWM()
	}
	s.err = err
}

// finish stops sampling and returns the window peaks in MB.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.peaks, s.err
}

// peakRSSMB reads VmHWM (peak resident set) of a process, in MB.
func peakRSSMB(pid string) (float64, error) {
	buf, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
