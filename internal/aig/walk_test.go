package aig_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/aig"
)

// churnedGraphs returns random graphs after every step of a ReplaceNode
// sequence, so the set holds dead slots and slots recycled by later
// allocations alongside freshly built structure.
func churnedGraphs(t *testing.T) []*aig.Graph {
	t.Helper()
	var out []*aig.Graph
	sawDead := false
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 8, 60)
		out = append(out, g.Clone())
		for step := 0; step < 20; step++ {
			ands := liveAnds(g)
			if len(ands) == 0 {
				break
			}
			v := ands[rng.Intn(len(ands))]
			g.ReplaceNode(v, buildReplacement(rng, g, v), nil)
			sawDead = sawDead || g.NumDead() > 0
			out = append(out, g.Clone())
		}
	}
	if !sawDead {
		t.Fatal("churn produced no dead slots")
	}
	return out
}

// naiveFanouts lists the AND fanouts of f by scanning every node's fanins.
func naiveFanouts(g *aig.Graph, f aig.Node) []int32 {
	var out []int32
	for m := aig.Node(1); int(m) < g.NumNodes(); m++ {
		if !g.IsAnd(m) {
			continue
		}
		for _, fi := range []aig.Lit{g.Fanin0(m), g.Fanin1(m)} {
			if fi.Node() == f {
				out = append(out, int32(m))
			}
		}
	}
	return out
}

// TestBuildFanoutsMatchesNaiveScan checks every CSR fanout list against a
// scan of the fanins, reusing the same buffers across graphs of different
// sizes so growth and stale contents are both exercised.
func TestBuildFanoutsMatchesNaiveScan(t *testing.T) {
	var start, list []int32
	for gi, g := range churnedGraphs(t) {
		n := g.NumNodes()
		start, list = aig.BuildFanouts(g, n, start, list)
		if len(start) != n+2 {
			t.Fatalf("graph %d: len(start) = %d, want %d", gi, len(start), n+2)
		}
		for f := aig.Node(0); int(f) < n; f++ {
			got := list[start[f]:start[f+1]]
			if want := naiveFanouts(g, f); !slices.Equal(got, want) {
				t.Fatalf("graph %d node %d: fanouts %v, want %v", gi, f, got, want)
			}
		}
	}
}

// TestIDQueueWalkVisitsTFOCone drives the shared dirty-TFO walk from every
// live node — push the fanouts of each popped node — and checks that it
// pops exactly TFOCone, in its ascending order.
func TestIDQueueWalkVisitsTFOCone(t *testing.T) {
	var start, list []int32
	var q aig.IDQueue
	for gi, g := range churnedGraphs(t) {
		n := g.NumNodes()
		start, list = aig.BuildFanouts(g, n, start, list)
		q.Reset(n)
		for v := aig.Node(1); int(v) < n; v++ {
			if g.Kind(v) == aig.KindDead {
				continue
			}
			got := []aig.Node{v}
			for _, m := range list[start[v]:start[v+1]] {
				q.Push(m)
			}
			for q.Len() > 0 {
				m := q.Pop()
				got = append(got, aig.Node(m))
				for _, fo := range list[start[m]:start[m+1]] {
					q.Push(fo)
				}
			}
			if want := g.TFOCone(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d node %d: walk popped %v, want TFOCone %v", gi, v, got, want)
			}
		}
	}
}

// TestIDQueuePopsSortedUnique interleaves random pushes — duplicates and
// ids below the last popped one included — with pops, and checks every pop
// against the smallest id of a reference set. Each round reuses the queue
// at a new size, some rounds abandoning it non-empty first.
func TestIDQueuePopsSortedUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q aig.IDQueue
	defer q.Release()
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(700)
		q.Reset(n)
		set := map[int32]bool{}
		for op := 0; op < 3*n; op++ {
			if len(set) > 0 && rng.Intn(3) == 0 {
				min := int32(n)
				for id := range set {
					if id < min {
						min = id
					}
				}
				if got := q.Pop(); got != min {
					t.Fatalf("round %d: Pop = %d, want %d", round, got, min)
				}
				delete(set, min)
			} else {
				id := int32(rng.Intn(n))
				q.Push(id)
				set[id] = true
			}
			if q.Len() != len(set) {
				t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), len(set))
			}
		}
		if round%4 == 0 {
			continue // leave the queue non-empty; Reset must clear it
		}
		want := make([]int32, 0, len(set))
		for id := range set {
			want = append(want, id)
		}
		slices.Sort(want)
		var got []int32
		for q.Len() > 0 {
			got = append(got, q.Pop())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: drained %v, want %v", round, got, want)
		}
	}
}
