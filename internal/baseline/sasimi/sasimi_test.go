package sasimi

import (
	"reflect"
	"testing"

	"repro/internal/aig"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/sim"
)

func rippleAdder(n int) *aig.Graph {
	g := aig.New()
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

func TestGeneratorProposesCandidates(t *testing.T) {
	g := rippleAdder(4)
	p := sim.Uniform(g.NumPIs(), 8, 3)
	vecs := sim.Simulate(g, p)
	cands := DefaultGenerator().Generate(g, vecs, p.Valid)
	if len(cands) == 0 {
		t.Fatalf("no candidates")
	}
	perNode := map[aig.Node]int{}
	for _, c := range cands {
		perNode[c.Node]++
		if c.Gain <= 0 {
			t.Errorf("candidate at node %d has gain %d", c.Node, c.Gain)
		}
	}
	for n, k := range perNode {
		if k > 3 {
			t.Errorf("node %d has %d candidates, cap 3", n, k)
		}
	}
}

// forcedPOs simulates g on p with node v's vector forced to nv: the output
// words the circuit produces once v is replaced by a signal whose value is
// nv, which is what the flow's error estimate assumes for a candidate.
func forcedPOs(g *aig.Graph, p *sim.Patterns, v aig.Node, nv []uint64) [][]uint64 {
	vecs := sim.Simulate(g, p)
	copy(vecs.Node(v), nv)
	a := make([]uint64, vecs.Words)
	b := make([]uint64, vecs.Words)
	for n := v + 1; int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		vecs.LitInto(g.Fanin0(n), a)
		vecs.LitInto(g.Fanin1(n), b)
		out := vecs.Node(n)
		for w := range out {
			out[w] = a[w] & b[w]
		}
	}
	return poWords(g, vecs)
}

func poWords(g *aig.Graph, vecs *sim.Vectors) [][]uint64 {
	out := make([][]uint64, g.NumPOs())
	for i := range out {
		out[i] = make([]uint64, vecs.Words)
		vecs.LitInto(g.PO(i), out[i])
	}
	return out
}

// checkCandidates asserts that every candidate's NewVec predicts the
// circuit its Apply and ApplyInPlace build, on the exhaustive patterns p.
func checkCandidates(t *testing.T, g *aig.Graph, p *sim.Patterns, vecs *sim.Vectors, cands []core.Candidate) {
	t.Helper()
	buf := make([]uint64, vecs.Words)
	for _, c := range cands {
		c.NewVec(vecs, buf)
		want := forcedPOs(g, p, c.Node, buf)
		ng := c.Apply(g.Clone())
		if ng.NumPIs() != g.NumPIs() || ng.NumPOs() != g.NumPOs() {
			t.Fatalf("apply changed the interface")
		}
		if err := ng.CheckStrict(); err != nil {
			t.Fatal(err)
		}
		if got := poWords(ng, sim.Simulate(ng, p)); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: Apply builds a different function than NewVec predicts", c.Node)
		}
		ip := g.Clone()
		c.ApplyInPlace(ip, nil)
		if err := ip.Check(); err != nil {
			t.Fatal(err)
		}
		if got := poWords(ip, sim.Simulate(ip, p)); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: ApplyInPlace builds a different function than Apply", c.Node)
		}
	}
}

func TestCandidateVectorsMatchApply(t *testing.T) {
	// For each candidate, the predicted new vector must describe the
	// substituted circuit: the substitute is an existing signal, so NewVec
	// is that signal's vector, and both Apply and ApplyInPlace must build
	// the circuit with the node replaced by it.
	g := rippleAdder(3)
	p := sim.Exhaustive(g.NumPIs())
	vecs := sim.Simulate(g, p)
	cands := DefaultGenerator().Generate(g, vecs, p.Valid)
	checkCandidates(t, g, p, vecs, cands)
}

// TestGenerateSkipsDeadSlots: an in-place commit leaves dead slots whose
// arena vectors still hold their old values. A dead slot is not a signal,
// so no candidate may substitute it.
func TestGenerateSkipsDeadSlots(t *testing.T) {
	g := rippleAdder(4)
	p := sim.Exhaustive(g.NumPIs())
	arena := sim.NewArena(g, p, 1)
	defer arena.Release()
	// The carry out of bit 1 feeds every later bit; replacing it by a
	// constant frees its cone and rebuilds the later bits in place.
	v := g.Fanin0(g.Fanin0(g.PO(2).Node()).Node()).Node()
	for !g.IsAnd(v) {
		v++
	}
	g.ReplaceNode(v, aig.LitFalse, nil)
	arena.Update()
	dead := false
	for n := aig.Node(1); int(n) < g.NumNodes()-1; n++ {
		dead = dead || g.Kind(n) == aig.KindDead
	}
	if !dead {
		t.Fatal("setup left no dead slot below the last node")
	}
	cands := DefaultGenerator().Generate(g, arena.Vectors(), p.Valid)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	checkCandidates(t, g, p, arena.Vectors(), cands)
}

func TestSasimiFlowRespectsThreshold(t *testing.T) {
	// A small adder under a generous ER budget: single-signal substitution
	// is coarse (the paper's motivation), but some move must fit 25%.
	g := rippleAdder(4)
	opts := Configure(core.DefaultOptions(errest.ER, 0.25))
	opts.EvalPatterns = 4096
	res := core.Run(g, opts)
	if res.FinalError > opts.Threshold {
		t.Fatalf("final error %.4g over threshold", res.FinalError)
	}
	if res.Applied == 0 {
		t.Fatalf("SASIMI flow applied nothing")
	}
}

func TestSasimiSubstitutesOnlyAcyclic(t *testing.T) {
	// All substitutes must have smaller ids than the target (acyclic by
	// construction); Apply must never panic or loop.
	g := rippleAdder(5)
	p := sim.Uniform(g.NumPIs(), 8, 9)
	vecs := sim.Simulate(g, p)
	for _, c := range DefaultGenerator().Generate(g, vecs, p.Valid) {
		ng := c.Apply(g)
		if err := ng.Check(); err != nil {
			t.Fatalf("node %d: %v", c.Node, err)
		}
	}
}

func TestConfigure(t *testing.T) {
	opts := Configure(core.DefaultOptions(errest.NMED, 0.01))
	if opts.InitialRounds != 512 || opts.Scale != 1.0 {
		t.Fatalf("Configure did not pin the similarity budget")
	}
	if _, ok := opts.Generator.(Generator); !ok {
		t.Fatalf("Configure did not install the SASIMI generator")
	}
}
