// Command alsracbench is the repository's benchmark. It runs one named
// workload of the ALSRAC flow for a fixed time, checks every output, and
// prints its metrics; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash alsracbench/run.sh --workload rca32-global --seed 1 --seconds 30 --trace 0
//	bash alsracbench/run.sh --selftest
//
// --trace 0 reports the end-to-end metrics of untraced runs. --trace 1
// alternates untraced and traced runs and reports the per-layer metrics,
// measured from outside the program through its public hooks (see
// hooks.go and daemon.go); the spans are written to
// .bench_build/spans/<workload>-seed<seed>.jsonl.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics reported with --trace 0 and
// --trace 1; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"step_ms.p50", "ms"},
	{"step_ms.p90", "ms"},
	{"job_ms.p50", "ms"},
	{"job_ms.p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"ands_ratio", "ratio"},
	{"asic_area_ratio", "ratio"},
	{"heap_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"core.commit_s", "s"},
	{"core.post_commit_s", "s"},
	{"core.steps", "count"},
	{"core.applied", "count"},
	{"opt.flushes", "count"},
	{"opt.optimize_s", "s"},
	{"opt.ands_removed", "count"},
	{"resub.generate_s", "s"},
	{"window.generate_s", "s"},
	{"resub.full_scans", "count"},
	{"resub.stale_frac", "ratio"},
	{"resub.candidates", "count"},
	{"sim.care_draw_s", "s"},
	{"sim.care_rerolls", "count"},
	{"errest.rank_s", "s"},
	{"errest.candidates_evaluated", "count"},
	{"errest.evaluated_per_applied", "ratio"},
	{"exact.certify_s", "s"},
	{"exact.sat_calls", "count"},
	{"exact.exhaustive_calls", "count"},
	{"exact.sat_conflicts", "count"},
	{"exact.rejections", "count"},
	{"exact.accept_ratio", "ratio"},
	{"faultfs.fsyncs_per_job", "count"},
	{"faultfs.dir_fsyncs_per_job", "count"},
	{"faultfs.files_created_per_job", "count"},
	{"faultfs.bytes_written_per_job", "bytes"},
	{"service.checkpoints_per_job", "count"},
	{"service.queue_wait_ms.p50", "ms"},
	{"api.submit_ms.p50", "ms"},
	{"api.result_ms.p50", "ms"},
	{"runtime.mallocs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
	{"trace.residual_frac", "ratio"},
}

// heldOutSeed is reserved for confirming a claimed gain: do not use it
// while developing a change.
const heldOutSeed = 7919

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one benchmark invocation's outcome.
type report struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts n failed operations with one message.
func (r *report) fail(n int, msg string) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.failures = append(r.failures, msg)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish selects the metrics of the mode. A metric the workload does not
// exercise (a daemon layer on a flow workload, or the other way round)
// reads 0; a missing end-to-end metric is a failure.
func (r *report) finish(defs []metricDef, endToEndMode bool) result {
	out := result{Attempted: max(r.attempted, 1), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if endToEndMode {
				r.fail(1, "metric "+d.name+" was not measured")
			}
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0
	return out
}

// heapSampler samples the live heap (as of the last GC) at Step or job
// boundaries. Its peak is the 95th percentile of the samples: the maximum
// of thousands of GC-time readings of a few-MB heap mostly measures when a
// GC happened to land inside a transient allocation burst.
type heapSampler struct {
	s       []metrics.Sample
	samples []float64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		h.samples = append(h.samples, float64(h.s[0].Value.Uint64()))
	}
}

func (h *heapSampler) peak() float64 { return quantile(h.samples, 0.95) }

func workloadNames() []string {
	names := []string{}
	for _, w := range flowWorkloads {
		names = append(names, w.name)
	}
	return append(names, daemonWorkload)
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	selftest := flag.Bool("selftest", false, "run the benchmark's self-test and exit")
	flag.Parse()
	if *selftest {
		if err := selfTest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		fmt.Println("selftest: ok")
		return
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "alsracbench: run from the repository root")
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "alsracbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := runWorkload(os.Stdout, *workload, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alsracbench:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// runWorkload runs one workload and prints provenance, notes, failures and
// the metric table as '#' lines. minimal runs the workload once at its
// shortest (the self-test).
func runWorkload(out io.Writer, name string, seed int64, seconds float64, trace, minimal bool) (result, error) {
	rep := newReport()
	prov := provenance()
	prov["workload"], prov["seed"], prov["held_out_seed"] = name, seed, heldOutSeed
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "# host %s\n", pj)
	t0 := time.Now()
	steal0, ticks0 := cpuSteal()
	var spans []span
	root := "core.step"
	found := false
	for _, w := range flowWorkloads {
		if w.name == name {
			spans = runFlow(w, seed, seconds, trace, minimal, rep)
			found = true
		}
	}
	if name == daemonWorkload {
		spans = runDaemon(seed, seconds, trace, minimal, rep)
		root, found = "job", true
	}
	if !found {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if steal1, ticks1 := cpuSteal(); ticks1 > ticks0 {
		rep.note("host: %.1f %% of CPU time stolen by the hypervisor during the run (/proc/stat)",
			100*float64(steal1-steal0)/float64(ticks1-ticks0))
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	if trace {
		breakdown(out, name, root, spans)
		if err := writeSpans(name, seed, spans); err != nil {
			rep.note("spans not written: %v", err)
		}
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := rep.finish(defs, !trace)
	for _, f := range rep.failures {
		fmt.Fprintf(out, "# FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "# failed_frac %.6g (%d of %d operations)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "# %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "# wall %.2f s\n", time.Since(t0).Seconds())
	return res, nil
}

func writeSpans(name string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	t := &tracer{spans: spans}
	if err := t.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeCounters are Go runtime totals: allocations, MiB allocated and
// completed GC cycles.
type runtimeCounters struct{ mallocs, allocMB, gcs float64 }

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{float64(ms.Mallocs), float64(ms.TotalAlloc) / (1 << 20), float64(ms.NumGC)}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.mallocs - b.mallocs, a.allocMB - b.allocMB, a.gcs - b.gcs}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.mallocs + b.mallocs, a.allocMB + b.allocMB, a.gcs + b.gcs}
}

// provenance describes the host and the source tree the numbers come from.
// The checkout the benchmark runs in need not be a git repository, so the
// commit is read from .git when present and the source digest (SHA-256
// over every .go file and go.mod, by path) identifies the code either way.
func provenance() map[string]any {
	p := map[string]any{
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     gitCommit(),
	}
	if d, err := sourceDigest("."); err == nil {
		p["source_sha256"] = d
	}
	return p
}

// cpuSteal returns the host's stolen and total CPU ticks from /proc/stat
// (zeros where it is unavailable). On a shared virtual machine the stolen
// share explains much of the run-to-run spread of the wall-time metrics.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(r)))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
