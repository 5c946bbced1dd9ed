package main

import (
	"sync/atomic"
	"time"

	"repro/internal/aig"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/sim"
)

// flowHooks traces one core.Session from outside. It decorates the
// session's LAC generator (and through it every Candidate's NewVec, Apply
// and ApplyInPlace), wraps Options.Patterns, and takes Options.CertNow and
// Options.CertObserve. The benchmark loop brackets each Session.Step with
// beginStep/endStep, so every hook call lands inside a known step and its
// spans share that step's id.
//
// Phases are cut at hook boundaries:
//
//	core.step        Step call → Step return (its self time is the residual)
//	sim.care_draw    Patterns call → GenerateIncremental call: drawing the
//	                 care patterns and resimulating the care arena on them
//	resub.generate   GenerateIncremental (window.generate when windowed)
//	errest.rank      generate return → Apply (certify), ApplyInPlace or Step
//	                 return, whichever comes first
//	exact.certify    Apply on the certification clone → CertObserve, with a
//	                 child exact.sat / exact.exhaustive between the
//	                 checker's two CertNow reads
//	core.commit      ApplyInPlace
//	trace.clone      copying the committed graph for the optimizer replay
//	                 (tracing overhead inside the step)
//	core.post_commit trace.clone end → Step return: arena updates, stale
//	                 closure and, on a flush, opt.Optimize
//	opt.optimize     opt.Optimize replayed after the run on the saved
//	                 post-commit graph of every flush (Replayed spans)
type flowHooks struct {
	tr    *tracer
	inner core.IncrementalGenerator
	gen   string // span name of the generate phase

	// State of the step in progress.
	open      bool
	id        int
	root      int
	drawStart time.Time
	drew      bool
	rankStart time.Time
	rankOpen  bool
	lastRank  int
	certStart time.Time
	certNow   []time.Time
	committed bool
	postStart time.Time

	// Flush detection: the graph the last commit mutated and a copy of it
	// taken right after ApplyInPlace. A flush replaces the session's
	// working graph, so the next generate sees a different *aig.Graph.
	applied    *aig.Graph
	clone      *aig.Graph
	cloneSpan  int // post_commit span of the commit that made clone
	cloneKnown bool
	replays    []replay
	mismatches int // replayed flushes whose size disagreed with the session

	// Counters, per session.
	genCalls    int
	legacyCalls int
	fullScans   int
	staleTrue   int
	staleTotal  int
	candidates  int
	rerolls     int
	evaluated   atomic.Int64 // NewVec runs on the ranking workers
}

// replay is one optimizer flush to be re-run after the session: opt.Optimize
// on clone must give a graph with wantAnds AND nodes.
type replay struct {
	clone    *aig.Graph
	parent   int
	id       int
	atEnd    bool // final flush inside finish: shorten the open rank span
	rankSpan int
	wantAnds int
}

// newFlowHooks wires the hooks into opts, wrapping inner (which must be
// the generator the session would have chosen itself).
func newFlowHooks(tr *tracer, opts *core.Options, inner core.IncrementalGenerator, genSpan string) *flowHooks {
	h := &flowHooks{tr: tr, inner: inner, gen: genSpan, root: -1, lastRank: -1}
	opts.Generator = (*tracedGenerator)(h)
	patterns := opts.Patterns
	if patterns == nil {
		patterns = sim.UniformN
	}
	opts.Patterns = func(nPIs, n int, seed int64) *sim.Patterns {
		if h.open {
			h.rerolls++
			h.drawStart, h.drew = time.Now(), true
		}
		return patterns(nPIs, n, seed)
	}
	opts.CertNow = func() time.Time {
		t := time.Now()
		if h.open {
			h.certNow = append(h.certNow, t)
		}
		return t
	}
	opts.CertObserve = func(backend string, _ float64, _ int64) {
		if !h.open {
			return
		}
		t := time.Now()
		c := h.tr.add("exact.certify", h.id, h.root, h.certStart, t)
		if len(h.certNow) >= 2 {
			h.tr.add("exact."+backend, h.id, c, h.certNow[0], h.certNow[len(h.certNow)-1])
		}
		h.certNow = h.certNow[:0]
	}
	return h
}

func (h *flowHooks) beginStep(id int) {
	now := time.Now()
	h.open, h.id = true, id
	h.root = h.tr.add("core.step", id, -1, now, now)
	h.drew, h.rankOpen, h.committed, h.lastRank = false, false, false, -1
}

func (h *flowHooks) closeRank(t time.Time) {
	if h.rankOpen {
		h.lastRank = h.tr.add("errest.rank", h.id, h.root, h.rankStart, t)
		h.rankOpen = false
	}
}

// endStep closes the step's spans. curAnds is the session's working AND
// count after the step, which a flush inside finish must reproduce.
func (h *flowHooks) endStep(ev core.Event, curAnds int) {
	t := time.Now()
	h.closeRank(t)
	if h.committed {
		h.cloneSpan = h.tr.add("core.post_commit", h.id, h.root, h.postStart, t)
	}
	h.tr.setEnd(h.root, t)
	if ev.Done && h.clone != nil {
		if h.cloneKnown {
			// finish flushed the commits since the last optimize boundary.
			h.replays = append(h.replays, replay{clone: h.clone, parent: h.root, id: h.id,
				atEnd: true, rankSpan: h.lastRank, wantAnds: curAnds})
		} else {
			// The last commit flushed and no generate followed it: only a
			// non-shrinking commit, which always flushes, can stall a
			// session out right after it.
			h.replays = append(h.replays, replay{clone: h.clone, parent: h.cloneSpan, id: h.id,
				rankSpan: -1, wantAnds: curAnds})
		}
		h.clone = nil
	}
	h.open = false
}

// noteGraph resolves the pending flush question when the session hands its
// working graph to the generator again.
func (h *flowHooks) noteGraph(g *aig.Graph) {
	if h.clone == nil || h.cloneKnown {
		return
	}
	if g != h.applied {
		h.replays = append(h.replays, replay{clone: h.clone, parent: h.cloneSpan, id: h.id,
			rankSpan: -1, wantAnds: g.NumAnds()})
		h.clone = nil
		return
	}
	h.cloneKnown = true // not flushed; finish may still flush it
}

// replayFlushes re-runs opt.Optimize on every saved flush input, records
// the opt.optimize spans and returns the total time and the AND nodes the
// optimizer removed. Replays that disagree with the session are counted
// in h.mismatches.
func (h *flowHooks) replayFlushes() (secs float64, removed int) {
	for _, r := range h.replays {
		t0 := time.Now()
		out := opt.Optimize(r.clone)
		d := time.Since(t0)
		secs += d.Seconds()
		removed += r.clone.NumAnds() - out.NumAnds()
		if out.NumAnds() != r.wantAnds {
			h.mismatches++
		}
		h.tr.addReplayedAt("opt.optimize", r.id, r.parent, d, r.atEnd)
		if r.atEnd && r.rankSpan >= 0 {
			h.tr.shorten(r.rankSpan, d)
		}
	}
	h.replays = nil
	return secs, removed
}

// tracedGenerator is flowHooks seen as the session's LAC generator. It
// implements all three generator interfaces so the session keeps the
// incremental commit path; the legacy entry points are counted because
// the fidelity check requires them unused.
type tracedGenerator flowHooks

func (tg *tracedGenerator) Generate(g *aig.Graph, care *sim.Vectors, valid int) []core.Candidate {
	h := (*flowHooks)(tg)
	h.legacyCalls++
	return h.wrap(h.inner.Generate(g, care, valid))
}

func (tg *tracedGenerator) GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid, workers int) []core.Candidate {
	h := (*flowHooks)(tg)
	h.legacyCalls++
	return h.wrap(h.inner.GenerateWorkers(g, care, valid, workers))
}

func (tg *tracedGenerator) GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, workers int,
	stale []bool, cache any) ([]core.Candidate, any) {
	h := (*flowHooks)(tg)
	h.noteGraph(g)
	start := time.Now()
	if h.drew {
		h.tr.add("sim.care_draw", h.id, h.root, h.drawStart, start)
		h.drew = false
	}
	h.genCalls++
	if stale == nil {
		h.fullScans++
	} else {
		h.staleTotal += len(stale)
		for _, s := range stale {
			if s {
				h.staleTrue++
			}
		}
	}
	cands, next := h.inner.GenerateIncremental(g, care, valid, workers, stale, cache)
	end := time.Now()
	h.tr.add(h.gen, h.id, h.root, start, end)
	h.candidates += len(cands)
	h.rankStart, h.rankOpen = end, true
	return h.wrap(cands), next
}

func (h *flowHooks) wrap(cands []core.Candidate) []core.Candidate {
	out := make([]core.Candidate, len(cands))
	for i := range cands {
		c := cands[i]
		w := c
		w.NewVec = func(vecs *sim.Vectors, dst []uint64) {
			h.evaluated.Add(1)
			c.NewVec(vecs, dst)
		}
		w.Apply = func(g *aig.Graph) *aig.Graph {
			t := time.Now()
			h.closeRank(t)
			h.certStart = t
			return c.Apply(g)
		}
		w.ApplyInPlace = func(g *aig.Graph, touched *[]aig.Node) {
			t0 := time.Now()
			h.closeRank(t0)
			c.ApplyInPlace(g, touched)
			t1 := time.Now()
			h.tr.add("core.commit", h.id, h.root, t0, t1)
			h.applied, h.clone, h.cloneKnown = g, g.Clone(), false
			t2 := time.Now()
			h.tr.add("trace.clone", h.id, h.root, t1, t2)
			h.committed, h.postStart = true, t2
		}
		out[i] = w
	}
	return out
}
