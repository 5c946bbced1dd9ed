package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/exact"
	"repro/internal/mapper"
	"repro/internal/opt"
	"repro/internal/resub"
	"repro/internal/sim"
)

// flowWorkload is a synthesis flow driven through core.Session. One run of
// the workload is `instances` sessions, each on an input made from its own
// sub-seed of the benchmark seed, stepped until the session terminates or
// `maxSteps` steps have run.
type flowWorkload struct {
	name      string
	instances int
	maxSteps  int // 0: step to termination
	// input builds the circuit the session starts from, including any
	// pre-optimization, from the instance's sub-seed.
	input   func(sub int64) *aig.Graph
	options func(sub int64) core.Options
}

var flowWorkloads = []*flowWorkload{
	{
		name:      "rca32-global",
		instances: 4,
		maxSteps:  40,
		input:     func(int64) *aig.Graph { return opt.Optimize(bench.RCA(32)) },
		options: func(sub int64) core.Options {
			o := core.DefaultOptions(errest.NMED, 0.0002441)
			o.EvalPatterns, o.Workers, o.Seed = 1024, 2, sub
			return o
		},
	},
	{
		name:      "mac64x8-windowed",
		instances: 3,
		maxSteps:  3,
		input:     func(sub int64) *aig.Graph { return bench.MACTree(64, 8, sub) },
		options: func(sub int64) core.Options {
			o := core.DefaultOptions(errest.ER, 0.05)
			o.EvalPatterns, o.Workers, o.Seed = 1024, 2, sub
			o.InitialRounds = 16
			o.Windowed = true
			return o
		},
	},
	{
		name:      "cla32-certified",
		instances: 2,
		maxSteps:  400,
		input:     func(int64) *aig.Graph { return opt.Optimize(bench.CLA(32)) },
		options: func(sub int64) core.Options {
			o := core.DefaultOptions(errest.NMED, 0.01)
			o.EvalPatterns, o.Workers, o.Seed = 1024, 2, sub
			o.MaxError = 0.01
			return o
		},
	},
}

// minimalSteps bounds the sessions of the self-test's short runs.
const minimalSteps = 6

// subSeed derives instance i's seed from the benchmark seed (splitmix64),
// so instances of one run are independent draws.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 33) // small positive: readable in logs
}

// innerGenerator is the generator core.NewSession picks for these options
// when Options.Generator is nil, and the name of its generate span. The
// traced run wraps it; the fidelity check proves the choice matches.
func innerGenerator(o core.Options, g *aig.Graph) (core.IncrementalGenerator, string) {
	rcfg := resub.Config{
		MaxLACsPerNode:  o.MaxLACsPerNode,
		MaxReplaceTries: o.MaxReplaceTries,
		MaxDivisors:     o.MaxDivisors,
		UseEspresso:     o.UseEspresso,
	}
	if o.Windowed && g.NumAnds() >= 200 {
		return core.WindowedGenerator{Win: o.WindowConfig(), Cfg: rcfg}, "window.generate"
	}
	return core.ResubGenerator{Cfg: rcfg}, "resub.generate"
}

// instance is one session's input, prepared before the timed set-up.
type instance struct {
	sub   int64
	input *aig.Graph // reference circuit for error, area and AND ratios
	opts  core.Options
}

// sessionRun is what one session run measured.
type sessionRun struct {
	setup, run float64 // seconds
	stepMs     []float64
	heapPeak   float64 // bytes
	steps      int
	generating int // steps that reached candidate generation
	applied    int
	result     core.Result
	cert       exact.Stats
	stepErrs   int

	// Go runtime deltas over the stepping interval.
	rt runtimeCounters
	// Traced runs only.
	hooks *flowHooks
}

// runSession sets up and steps one session. With tr non-nil the session
// runs under flowHooks, with span ids offset by idBase.
func runSession(w *flowWorkload, sub int64, tr *tracer, idBase int) (*sessionRun, *aig.Graph) {
	r := &sessionRun{}
	t0 := time.Now()
	g := w.input(sub)
	opts := w.options(sub)
	if tr != nil {
		inner, name := innerGenerator(opts, g)
		r.hooks = newFlowHooks(tr, &opts, inner, name)
	}
	s := core.NewSession(g, opts)
	r.setup = time.Since(t0).Seconds()

	rt0 := readRuntime()
	heap := newHeapSampler()
	ctx := context.Background()
	tRun := time.Now()
	for w.maxSteps == 0 || r.steps < w.maxSteps {
		ts := time.Now()
		if r.hooks != nil {
			r.hooks.beginStep(idBase + r.steps)
		}
		ev, err := s.Step(ctx)
		if r.hooks != nil {
			r.hooks.endStep(ev, s.CurrentAnds())
		}
		r.stepMs = append(r.stepMs, float64(time.Since(ts).Nanoseconds())/1e6)
		heap.sample()
		r.steps++
		if err != nil {
			r.stepErrs++
			break
		}
		if ev.Kind != core.EventDone {
			r.generating++
		}
		if ev.Done {
			break
		}
	}
	r.result = s.Result()
	r.run = time.Since(tRun).Seconds()
	r.rt = readRuntime().sub(rt0)
	r.heapPeak = heap.peak()
	r.applied = s.Applied()
	r.cert = s.CertStats()
	return r, g
}

// checkFlow runs the output checks on one session result and returns the
// number of checks made and the failures found.
func checkFlow(in *instance, res core.Result) (int, []string) {
	var fails []string
	checks := 3
	if err := res.Graph.CheckStrict(); err != nil {
		fails = append(fails, "CheckStrict: "+err.Error())
	}
	if res.FinalError > in.opts.Threshold {
		fails = append(fails, fmt.Sprintf("reported error %.6g > threshold %.6g", res.FinalError, in.opts.Threshold))
	}
	// Re-measure the returned graph on the session's evaluation patterns
	// with a fresh evaluator, so a result that does not match its reported
	// error is caught.
	if res.Graph.NumPIs() == in.input.NumPIs() && res.Graph.NumPOs() == in.input.NumPOs() {
		pats := sim.UniformN(in.input.NumPIs(), max(in.opts.EvalPatterns, 64), in.opts.Seed)
		e := errest.NewEvaluator(in.input, pats, in.opts.Metric).EvalGraph(res.Graph, pats)
		if e > in.opts.Threshold {
			fails = append(fails, fmt.Sprintf("re-measured error %.6g > threshold %.6g", e, in.opts.Threshold))
		}
	} else {
		fails = append(fails, "result interface differs from the input")
	}
	if in.opts.MaxError > 0 {
		checks++
		chk, err := exact.New(in.input, exact.Config{})
		if err == nil {
			var cert exact.Certificate
			cert, err = chk.Certify(res.Graph, in.opts.MaxError)
			if err == nil && !cert.OK {
				err = fmt.Errorf("exact max error %.6g > %.6g", cert.MaxErr, in.opts.MaxError)
			}
		}
		if err != nil {
			fails = append(fails, "re-certification: "+err.Error())
		}
	}
	return checks, fails
}

// qualityRatios returns the result's AND count and mapped cell area as
// ratios of the input's.
func qualityRatios(input, result *aig.Graph) (ands, area float64) {
	lib := cell.MCNC()
	a0 := mapper.MapCells(input, lib).Area
	a1 := mapper.MapCells(result, lib).Area
	return float64(result.NumAnds()) / float64(input.NumAnds()), a1 / a0
}

// flowRep is one workload run: every instance once.
type flowRep struct {
	traced   bool
	setup    float64
	run      float64
	sessions []*sessionRun
	layer    map[string]float64 // traced runs: per-layer values
}

// runFlow measures a flow workload for about `seconds` (see enough). Without
// trace it repeats untraced workload runs; with trace it alternates
// untraced and traced runs (at least one of each) and reports the
// per-layer metrics.
func runFlow(w *flowWorkload, seed int64, seconds float64, trace bool, minimal bool, rep *report) []span {
	if minimal {
		short := *w
		short.instances = 1
		if short.maxSteps == 0 || short.maxSteps > minimalSteps {
			short.maxSteps = minimalSteps
		}
		w = &short
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	insts := make([]*instance, w.instances)
	for i := range insts {
		sub := subSeed(seed, i)
		insts[i] = &instance{sub: sub, opts: w.options(sub)}
	}
	fps := make([]uint64, w.instances)
	fpSet := make([]bool, w.instances)
	var ratiosA, ratiosArea []float64
	var reps []*flowRep
	var allSpans []span
	for n := 0; ; n++ {
		repStart := time.Now()
		traced := trace && n%2 == 1
		fr := &flowRep{traced: traced}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		for i, in := range insts {
			sr, input := runSession(w, in.sub, tr, (n*w.instances+i)*100000)
			in.input = input
			fr.sessions = append(fr.sessions, sr)
			fr.setup += sr.setup
			fr.run += sr.run
			rep.attempted += sr.steps
			rep.fail(sr.stepErrs, fmt.Sprintf("%s: %d step errors", w.name, sr.stepErrs))

			checks, fails := checkFlow(in, sr.result)
			rep.attempted += checks + 1
			for _, f := range fails {
				rep.fail(1, fmt.Sprintf("%s instance %d (sub-seed %d): %s", w.name, i, in.sub, f))
			}
			fp := aig.Fingerprint(sr.result.Graph)
			if !fpSet[i] {
				fps[i], fpSet[i] = fp, true
				a, ar := qualityRatios(input, sr.result.Graph)
				ratiosA, ratiosArea = append(ratiosA, a), append(ratiosArea, ar)
				rep.note("%s instance %d: sub-seed %d, %d steps, %d applied, %d -> %d ANDs, error %.6g, fingerprint %016x",
					w.name, i, in.sub, sr.steps, sr.applied, input.NumAnds(), sr.result.Graph.NumAnds(),
					sr.result.FinalError, fp)
			} else if fp != fps[i] {
				what := "repetition"
				if traced {
					what = "traced run"
				}
				rep.fail(1, fmt.Sprintf("%s instance %d: %s fingerprint %016x differs from the first run's %016x",
					w.name, i, what, fp, fps[i]))
			}
		}
		if traced {
			fr.layer = layerMetrics(fr, tr)
			for i, sr := range fr.sessions {
				rep.attempted += 3
				fidelity(w, i, sr, rep)
			}
			base := len(allSpans)
			for _, sp := range tr.snapshot() {
				if sp.Parent >= 0 {
					sp.Parent += base
				}
				allSpans = append(allSpans, sp)
			}
		}
		reps = append(reps, fr)
		// One workload run at least; under trace, one untraced and one
		// traced.
		if minimal || ((!trace || n >= 1) && enough(repStart, deadline)) {
			break
		}
	}

	var setups, runs, heaps, stepMs, jobMs []float64
	jobs, jobSecs := 0, 0.0
	for _, fr := range reps {
		if fr.traced {
			continue
		}
		setups, runs = append(setups, fr.setup), append(runs, fr.run)
		for _, sr := range fr.sessions {
			heaps = append(heaps, sr.heapPeak)
			stepMs = append(stepMs, sr.stepMs...)
			jobMs = append(jobMs, 1000*(sr.setup+sr.run))
			jobs++
			jobSecs += sr.setup + sr.run
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("run_s", median(runs))
	rep.set("step_ms.p50", quantile(stepMs, 0.5))
	rep.set("step_ms.p90", quantile(stepMs, 0.9))
	rep.set("job_ms.p50", quantile(jobMs, 0.5))
	rep.set("job_ms.p90", quantile(jobMs, 0.9))
	rep.set("jobs_per_s", float64(jobs)/jobSecs)
	rep.set("ands_ratio", geomean(ratiosA))
	rep.set("asic_area_ratio", geomean(ratiosArea))
	rep.set("heap_peak_mb", median(heaps)/(1<<20))
	rep.note("%s: %d untraced workload runs, %d steps timed, %d sessions", w.name, len(runs), len(stepMs), jobs)
	if !trace {
		return nil
	}

	// Per-layer metrics: medians over the traced runs, except the Go
	// runtime counts, which come from the untraced runs they describe.
	var tracedRuns []float64
	layers := map[string][]float64{}
	var mallocs, allocMB, gcs []float64
	for _, fr := range reps {
		if fr.traced {
			tracedRuns = append(tracedRuns, fr.run)
			for k, v := range fr.layer {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		var t runtimeCounters
		for _, sr := range fr.sessions {
			t = t.add(sr.rt)
		}
		mallocs, allocMB, gcs = append(mallocs, t.mallocs), append(allocMB, t.allocMB), append(gcs, t.gcs)
	}
	for k, vs := range layers {
		rep.set(k, median(vs))
	}
	rep.set("runtime.mallocs", median(mallocs))
	rep.set("runtime.alloc_mb", median(allocMB))
	rep.set("runtime.gc_cycles", median(gcs))
	self, tot := selfTimes(allSpans), totals(allSpans)
	rep.set("trace.overhead_s", median(tracedRuns)-median(runs))
	rep.set("trace.residual_frac", self["core.step"]/tot["core.step"])
	rep.note("%s: tracing overhead %.4f s per workload run (traced %.4f s vs untraced %.4f s, medians of %d and %d runs)",
		w.name, median(tracedRuns)-median(runs), median(tracedRuns), median(runs), len(tracedRuns), len(runs))
	return allSpans
}

// fidelity checks that a traced session behaved like an untraced one
// beyond its fingerprint: it stayed on the incremental path (one
// GenerateIncremental per generating step, no legacy Generate calls) and
// every replayed optimizer flush reproduced the session's graph size.
func fidelity(w *flowWorkload, i int, sr *sessionRun, rep *report) {
	h := sr.hooks
	if h.genCalls != sr.generating {
		rep.fail(1, fmt.Sprintf("%s instance %d: %d GenerateIncremental calls for %d generating steps (left the incremental path)",
			w.name, i, h.genCalls, sr.generating))
	}
	if h.legacyCalls != 0 {
		rep.fail(1, fmt.Sprintf("%s instance %d: %d legacy Generate calls", w.name, i, h.legacyCalls))
	}
	if h.mismatches != 0 {
		rep.fail(1, fmt.Sprintf("%s instance %d: %d replayed flushes disagree with the session", w.name, i, h.mismatches))
	}
}

// layerMetrics sums one traced workload run's per-layer values over its
// sessions. The optimizer flushes are replayed here, after the run.
func layerMetrics(fr *flowRep, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	var evaluated, applied, certCalls, certRej float64
	for _, sr := range fr.sessions {
		h := sr.hooks
		flushes := len(h.replays)
		secs, removed := h.replayFlushes()
		m["opt.flushes"] += float64(flushes)
		m["opt.optimize_s"] += secs
		m["opt.ands_removed"] += float64(removed)
		m["core.steps"] += float64(sr.steps)
		m["core.applied"] += float64(sr.applied)
		m["resub.full_scans"] += float64(h.fullScans)
		m["resub.candidates"] += float64(h.candidates)
		m["sim.care_rerolls"] += float64(h.rerolls)
		m["errest.candidates_evaluated"] += float64(h.evaluated.Load())
		m["exact.sat_calls"] += float64(sr.cert.SATCalls)
		m["exact.exhaustive_calls"] += float64(sr.cert.ExhaustiveCalls)
		m["exact.sat_conflicts"] += float64(sr.cert.SATConflicts)
		m["exact.rejections"] += float64(sr.cert.Rejections)
		evaluated += float64(h.evaluated.Load())
		applied += float64(sr.applied)
		certCalls += float64(sr.cert.Calls)
		certRej += float64(sr.cert.Rejections)
		m["stale_true"] += float64(h.staleTrue)
		m["stale_total"] += float64(h.staleTotal)
	}
	tot := totals(tr.snapshot())
	m["core.commit_s"] = tot["core.commit"]
	m["core.post_commit_s"] = tot["core.post_commit"]
	m["resub.generate_s"] = tot["resub.generate"]
	m["window.generate_s"] = tot["window.generate"]
	m["sim.care_draw_s"] = tot["sim.care_draw"]
	m["errest.rank_s"] = tot["errest.rank"]
	m["exact.certify_s"] = tot["exact.certify"]
	if m["stale_total"] > 0 {
		m["resub.stale_frac"] = m["stale_true"] / m["stale_total"]
	}
	delete(m, "stale_true")
	delete(m, "stale_total")
	if applied > 0 {
		m["errest.evaluated_per_applied"] = evaluated / applied
	}
	if certCalls > 0 {
		m["exact.accept_ratio"] = (certCalls - certRej) / certCalls
	}
	return m
}
