package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/aig"
)

// selfTest runs every workload once at minimum length, untraced and
// traced, and asserts that each named metric is emitted with its unit and
// that the outputs passed their checks. It then hands the output checks a
// corrupted result — one primary output complemented — and asserts that
// they fail it, so that failed_frac > 0.
func selfTest(out io.Writer) error {
	if err := checkBenchmarkJSON(); err != nil {
		return err
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(out, name, 1, 0, trace, true)
			if err != nil {
				return err
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if err := checkEmitted(res, defs); err != nil {
				return fmt.Errorf("%s (trace %v): %w", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s (trace %v): %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
		}
	}
	for _, w := range flowWorkloads {
		frac, err := corruptedFailedFrac(w)
		if err != nil {
			return err
		}
		if frac <= 0 {
			return fmt.Errorf("%s: the checks passed a result with a complemented output", w.name)
		}
		fmt.Fprintf(out, "# selftest: %s corrupted result gives failed_frac %.3g\n", w.name, frac)
	}
	return nil
}

// checkEmitted asserts that res carries exactly defs, with their units.
func checkEmitted(res result, defs []metricDef) error {
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	return nil
}

// checkBenchmarkJSON asserts that BENCHMARK.json (in the working directory
// or its parent) names the same workloads and metrics as this program.
func checkBenchmarkJSON() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		return fmt.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, the program's %q", i, w.Name, names[i])
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			return fmt.Errorf("BENCHMARK.json lists %d metrics where the program has %d", len(c.file), len(c.defs))
		}
		for i, m := range c.file {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				return fmt.Errorf("BENCHMARK.json metric %s (%s), the program's %s (%s)",
					m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	return nil
}

// corruptedFailedFrac runs one short session of w, complements the most
// significant output of its result and returns the failed fraction the
// output checks report for it.
func corruptedFailedFrac(w *flowWorkload) (float64, error) {
	short := *w
	short.maxSteps = minimalSteps
	sub := subSeed(1, 0)
	sr, input := runSession(&short, sub, nil, 0)
	in := &instance{sub: sub, input: input, opts: w.options(sub)}
	if _, fails := checkFlow(in, sr.result); len(fails) != 0 {
		return 0, fmt.Errorf("%s: the uncorrupted result failed: %v", w.name, fails)
	}
	good := aig.Fingerprint(sr.result.Graph)
	bad := sr.result
	bad.Graph = sr.result.Graph.Clone()
	last := bad.Graph.NumPOs() - 1
	bad.Graph.SetPO(last, bad.Graph.PO(last).Not())

	rep := newReport()
	checks, fails := checkFlow(in, bad)
	rep.attempted += checks + 1
	for _, f := range fails {
		rep.fail(1, f)
	}
	if aig.Fingerprint(bad.Graph) == good {
		rep.fail(1, "fingerprint unchanged")
	}
	return float64(rep.failed) / float64(rep.attempted), nil
}
