package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/baseline/sasimi"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/exact"
	"repro/internal/resub"
	"repro/internal/sim"
)

// TestFlowModesMatchOracle is the differential flow oracle. Every flow mode
// runs on small circuits whose exact error is computable by exhaustive
// simulation, and each run is checked against that oracle rather than
// against itself:
//
//   - after every step the best snapshot passes CheckStrict and, under a
//     depth cap, is no deeper than the cap;
//   - the exact error of the result is within the Hoeffding upper bound of
//     its sampled estimate;
//   - certified runs stay within MaxError by the exact checker;
//   - 1 and 4 workers give identical results;
//   - a run snapshotted and restored after every step gives the result of
//     the uninterrupted run;
//   - windowed generation with unbounded windows gives the global result.
func TestFlowModesMatchOracle(t *testing.T) {
	type circuit struct {
		g         *aig.Graph
		metric    errest.Metric
		threshold float64
	}
	circuits := []circuit{{oracleAdder(5), errest.NMED, 0.02}}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomOracleGraph(rng, 6+rng.Intn(7), 40+rng.Intn(30))
		g.Name = fmt.Sprintf("random%d", seed)
		circuits = append(circuits, circuit{g, errest.ER, 0.05})
	}
	modes := []struct {
		name string
		set  func(*core.Options)
	}{
		{"global", func(*core.Options) {}},
		{"skip-optimize", func(o *core.Options) { o.SkipOptimize = true }},
		{"depth-capped", func(o *core.Options) { o.MaxDepthRatio = 1.0 }},
		{"sasimi", func(o *core.Options) { *o = sasimi.Configure(*o) }},
		{"certified", func(o *core.Options) { o.Threshold *= 4; o.MaxError = 0.1 }},
		{"const-zero", func(o *core.Options) { o.Generator = zeroGen{} }},
		{"windowed-unbounded", func(o *core.Options) { windowed(o, -1, -1) }},
		{"windowed-bounded", func(o *core.Options) { windowed(o, 4, 12) }},
	}
	for _, c := range circuits {
		var global core.Result
		for _, m := range modes {
			t.Run(c.g.Name+"/"+m.name, func(t *testing.T) {
				opts := core.DefaultOptions(c.metric, c.threshold)
				opts.EvalPatterns = 1024
				opts.Seed = 5
				opts.Workers = 1
				m.set(&opts)
				depthCap := 0
				if opts.MaxDepthRatio > 0 {
					depthCap = int(opts.MaxDepthRatio * float64(c.g.Sweep().Depth()))
				}

				want := runOracleFlow(t, c.g, opts, depthCap, false)
				switch m.name {
				case "global":
					global = want
				case "windowed-unbounded":
					if global.Graph != nil { // nil when -run selected this mode alone
						sameResult(t, "windowed-unbounded vs global", global, want)
					}
				}
				par := opts
				par.Workers = 4
				sameResult(t, "workers=4", want, runOracleFlow(t, c.g, par, depthCap, false))
				sameResult(t, "resume every step", want, runOracleFlow(t, c.g, opts, depthCap, true))

				n := c.g.NumPIs()
				all := sim.Exhaustive(n)
				exactErr := errest.NewEvaluator(c.g, all, opts.Metric).EvalGraph(want.Graph, all)
				est := errest.NewEvaluator(c.g, sim.UniformN(n, opts.EvalPatterns, opts.Seed), opts.Metric)
				t.Logf("%d applied in %d steps, %d -> %d ANDs, error %.5g (exact %.5g)", want.Applied,
					want.Iterations, c.g.NumAnds(), want.Graph.NumAnds(), want.FinalError, exactErr)
				if ub := est.CertifiedUpperBound(want.FinalError, 1e-6); exactErr > ub {
					t.Fatalf("exact error %.5g above the sampled estimate's bound %.5g (estimate %.5g)",
						exactErr, ub, want.FinalError)
				}
				if opts.MaxError > 0 {
					chk, err := exact.New(c.g, exact.Config{})
					if err != nil {
						t.Fatal(err)
					}
					cert, err := chk.MaxError(want.Graph)
					if err != nil {
						t.Fatal(err)
					}
					if cert.MaxErr > opts.MaxError {
						t.Fatalf("certified result has exact max error %.5g > %.5g", cert.MaxErr, opts.MaxError)
					}
				}
			})
		}
	}
}

// windowed switches o to the windowed generator with the given window PI and
// node limits (-1 = unbounded, which also lifts the divisor and fanout-skip
// limits). The generator is set explicitly because the oracle circuits are
// below the size at which a Windowed session falls back to global
// generation.
func windowed(o *core.Options, maxPIs, maxNodes int) {
	o.Windowed = true
	o.WindowMaxPIs, o.WindowMaxNodes = maxPIs, maxNodes
	if maxPIs < 0 {
		o.WindowMaxDivisors, o.WindowSkipFanoutRoots, o.WindowSkipFanoutDivisors = -1, -1, -1
	}
	o.Generator = core.WindowedGenerator{Win: o.WindowConfig(), Cfg: resub.Config{
		MaxLACsPerNode:  o.MaxLACsPerNode,
		MaxReplaceTries: o.MaxReplaceTries,
		MaxDivisors:     o.MaxDivisors,
		UseEspresso:     o.UseEspresso,
	}}
}

// runOracleFlow drives a session to completion, checking the best snapshot
// after every step. With resume set, the session is snapshotted and
// replaced by its restored twin after every step.
func runOracleFlow(t *testing.T, g *aig.Graph, opts core.Options, depthCap int, resume bool) core.Result {
	t.Helper()
	s := core.NewSession(g, opts)
	for step := 1; ; step++ {
		ev, err := s.Step(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		res := s.Result()
		if err := res.Graph.CheckStrict(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if d := res.Graph.Depth(); depthCap > 0 && d > depthCap {
			t.Fatalf("step %d: best graph depth %d exceeds the cap %d", step, d, depthCap)
		}
		if resume {
			var ckpt bytes.Buffer
			if err := s.Snapshot(&ckpt); err != nil {
				t.Fatalf("step %d: snapshot: %v", step, err)
			}
			if s, err = core.Restore(&ckpt, opts); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
		}
		if ev.Done {
			return s.Result()
		}
		if step > 5000 {
			t.Fatal("session did not terminate")
		}
	}
}

func sameResult(t *testing.T, what string, want, got core.Result) {
	t.Helper()
	if got.FinalError != want.FinalError || got.Iterations != want.Iterations || got.Applied != want.Applied {
		t.Fatalf("%s: error/iterations/applied %v/%d/%d, want %v/%d/%d", what,
			got.FinalError, got.Iterations, got.Applied, want.FinalError, want.Iterations, want.Applied)
	}
	if !reflect.DeepEqual(got.History, want.History) {
		t.Fatalf("%s: history differs", what)
	}
	if !bytes.Equal(aagBytes(t, got.Graph), aagBytes(t, want.Graph)) {
		t.Fatalf("%s: final graph differs", what)
	}
}

func aagBytes(t *testing.T, g *aig.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aiger.Write(&buf, g, "aag"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oracleAdder(n int) *aig.Graph {
	g := aig.New()
	g.Name = "rca"
	a := g.AddPIs(n, "a")
	b := g.AddPIs(n, "b")
	carry := aig.LitFalse
	for i := 0; i < n; i++ {
		axb := g.Xor(a[i], b[i])
		g.AddPO(g.Xor(axb, carry), "s")
		carry = g.Or(g.And(a[i], b[i]), g.And(axb, carry))
	}
	g.AddPO(carry, "cout")
	return g
}

// randomOracleGraph builds a seeded random AIG over nPIs inputs with about
// size gates and five outputs over the most recent signals.
func randomOracleGraph(rng *rand.Rand, nPIs, size int) *aig.Graph {
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for len(lits) < nPIs+size {
		pick := func() aig.Lit {
			return lits[len(lits)-1-rng.Intn(min(len(lits), 3*nPIs))].NotCond(rng.Intn(2) == 0)
		}
		a, b := pick(), pick()
		switch rng.Intn(3) {
		case 0:
			lits = append(lits, g.And(a, b))
		case 1:
			lits = append(lits, g.Or(a, b))
		default:
			lits = append(lits, g.Xor(a, b))
		}
	}
	for i := 0; i < 5; i++ {
		g.AddPO(lits[len(lits)-1-2*i], "")
	}
	return g.Sweep()
}

// zeroGen proposes a constant-zero replacement for every AND node.
type zeroGen struct{}

func (zeroGen) Generate(g *aig.Graph, care *sim.Vectors, valid int) []core.Candidate {
	var out []core.Candidate
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		node := n
		out = append(out, core.Candidate{
			Node: node,
			Gain: 1,
			NewVec: func(vecs *sim.Vectors, dst []uint64) {
				clear(dst)
			},
			Apply: func(g *aig.Graph) *aig.Graph {
				return g.CopyWith(map[aig.Node]aig.Lit{node: aig.LitFalse})
			},
			ApplyInPlace: func(g *aig.Graph, touched *[]aig.Node) {
				g.ReplaceNode(node, aig.LitFalse, touched)
			},
		})
	}
	return out
}

func (z zeroGen) GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid, workers int) []core.Candidate {
	return z.Generate(g, care, valid)
}

func (z zeroGen) GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, workers int,
	stale []bool, cache any) ([]core.Candidate, any) {
	return z.Generate(g, care, valid), nil
}
