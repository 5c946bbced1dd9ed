package sim

import (
	"repro/internal/aig"
	"repro/internal/wordops"
)

// Arena is a persistent simulation state that tracks a graph across in-place
// mutations (aig.Graph.ReplaceNode). Where SimulateWorkers recomputes every
// node vector from scratch, Arena.Update re-evaluates only the slots whose
// epoch moved since the last sync plus the transitive fanout that actually
// changes value — the dirty-TFO slice of a committed LAC instead of the
// whole circuit.
//
// The result is bitwise identical to a fresh SimulateWorkers run on the
// mutated graph for every live node, for any worker count: word columns are
// independent, evaluation follows ascending node ids (the graph's
// topological order), and propagation prunes a fanout only when the fused
// AndDiff kernel proves the node's words did not change — in which case the
// fanout's inputs are bit-identical to the from-scratch run's.
type Arena struct {
	g       *aig.Graph
	p       *Patterns
	workers int
	vecs    *Vectors
	epochs  []uint32 // graph epochs at last sync

	// Update scratch, reused across calls so steady-state updates allocate
	// nothing once grown to the graph size.
	queue   aig.IDQueue
	foStart []int32
	foList  []int32
}

// NewArena builds an arena bound to g and p and fully simulates it (with
// the given worker count, 0 = GOMAXPROCS). The pattern input count must
// match g.NumPIs().
func NewArena(g *aig.Graph, p *Patterns, workers int) *Arena {
	a := &Arena{workers: workers}
	a.Rebind(g, p)
	return a
}

// Rebind points the arena at a (possibly different) graph and pattern set
// and re-simulates from scratch. Sessions use this after a structural
// optimization pass replaced the graph object, and when the care patterns
// are rerolled.
func (a *Arena) Rebind(g *aig.Graph, p *Patterns) {
	a.vecs.Release()
	a.g, a.p = g, p
	a.vecs = SimulateWorkers(g, p, a.workers)
	a.syncEpochs()
}

// Vectors returns the arena's value vectors. The returned object is owned
// by the arena: it is updated in place by Update and freed by Release.
func (a *Arena) Vectors() *Vectors { return a.vecs }

// Patterns returns the pattern set the arena is bound to.
func (a *Arena) Patterns() *Patterns { return a.p }

// Release returns the arena's vectors and Update scratch to the shared
// pools. The arena must not be used afterwards.
func (a *Arena) Release() {
	a.vecs.Release()
	a.queue.Release()
	wordops.PutI32(a.foStart)
	wordops.PutI32(a.foList)
	a.vecs, a.foStart, a.foList = nil, nil, nil
}

// Update incrementally re-simulates after in-place mutations of the bound
// graph, and returns the number of AND evaluations performed. Every slot
// whose epoch moved since the last Update (created, recycled or freed by
// ReplaceNode) is re-evaluated, and changes propagate through the current
// fanout structure in ascending node-id order; fanouts of a node whose
// value words came out unchanged are pruned. After Update, Vectors holds
// bitwise the same words a from-scratch SimulateWorkers run would for every
// live node.
//
//alsrac:alloc-ok scratch slices grow to the graph size once and are reused
func (a *Arena) Update() int {
	g := a.g
	n := g.NumNodes()
	a.vecs.EnsureNodes(n)
	for len(a.epochs) < n {
		a.epochs = append(a.epochs, 0)
	}

	// Seed the queue with every epoch-dirty live AND node. Recycled slots
	// hold stale value words from their previous occupant; their fanouts are
	// necessarily also epoch-dirty (an old node cannot reference a slot that
	// was dead when it was built), so even a coincidental AndDiff match on
	// garbage cannot mask a needed downstream update.
	a.queue.Reset(n)
	dirty := false
	for i := 0; i < n; i++ {
		if a.epochs[i] != g.Epoch(aig.Node(i)) {
			dirty = true
			if g.IsAnd(aig.Node(i)) {
				a.queue.Push(int32(i))
			}
		}
	}
	if !dirty {
		return 0
	}
	a.foStart, a.foList = aig.BuildFanouts(g, n, a.foStart, a.foList)

	evals := 0
	vecs := a.vecs
	for a.queue.Len() > 0 {
		m := a.queue.Pop()
		node := aig.Node(m)
		if !g.IsAnd(node) {
			continue
		}
		f0, f1 := g.Fanin0(node), g.Fanin1(node)
		changed := wordops.AndDiff(vecs.Node(node),
			vecs.Node(f0.Node()), vecs.Node(f1.Node()),
			f0.IsCompl(), f1.IsCompl())
		evals++
		if changed || a.epochs[m] != g.Epoch(node) {
			for _, fo := range a.foList[a.foStart[m]:a.foStart[m+1]] {
				a.queue.Push(fo)
			}
		}
	}
	a.syncEpochs()
	return evals
}

func (a *Arena) syncEpochs() {
	g := a.g
	n := g.NumNodes()
	if cap(a.epochs) < n {
		a.epochs = make([]uint32, n)
	}
	a.epochs = a.epochs[:n]
	for i := range a.epochs {
		a.epochs[i] = g.Epoch(aig.Node(i))
	}
}

// EnsureNodes grows the vector storage to hold at least `nodes` node
// vectors, preserving existing contents. Newly covered slots hold arbitrary
// words until written.
func (v *Vectors) EnsureNodes(nodes int) {
	need := nodes * v.Words
	if len(v.flat) >= need {
		return
	}
	nf := wordops.Get(need)
	copy(nf, v.flat)
	wordops.Put(v.flat)
	v.flat = nf
}
