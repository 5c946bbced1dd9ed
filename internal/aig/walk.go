package aig

import (
	"math/bits"

	"repro/internal/wordops"
)

// The dirty-TFO walk shared by ReplaceNode, the simulation arena and the
// batch resimulator: build the AND-fanout adjacency once, seed an IDQueue
// with the changed nodes, and pop ids in ascending (topological) order,
// pushing the fanouts of every node whose value or structure changed.
// Every enqueuer of a node has a smaller id, so each node is popped at most
// once and always after all of its changed fanins.

// BuildFanouts computes the CSR AND-fanout adjacency of the first n slots of
// g: the AND fanouts of node f are list[start[f]:start[f+1]], in ascending
// id order. start and list are caller-owned scratch, grown from the shared
// pool when too small, and returned resized (start to n+2 entries).
//
//alsrac:hotpath
func BuildFanouts(g *Graph, n int, start, list []int32) ([]int32, []int32) {
	start = growI32(start, n+2)
	clear(start)
	// Fanout counts go to start[f+2], so after the prefix sum start[f+1] is
	// the first slot of f's range and serves as its fill cursor; once every
	// fanout is placed it has advanced to the end of f's range.
	for m := Node(1); int(m) < n; m++ {
		if g.kind[m] == KindAnd {
			start[g.fanin0[m].Node()+2]++
			start[g.fanin1[m].Node()+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	list = growI32(list, int(start[n+1]))
	for m := Node(1); int(m) < n; m++ {
		if g.kind[m] == KindAnd {
			for _, f := range [2]Node{g.fanin0[m].Node(), g.fanin1[m].Node()} {
				list[start[f+1]] = int32(m)
				start[f+1]++
			}
		}
	}
	return start, list
}

// IDQueue is a min-queue of node ids: a bitset of queued ids with a forward
// word cursor. Pop returns the smallest queued id, and pushing an id that is
// already queued is a no-op. The zero value is an empty queue for no ids;
// Reset sizes it.
type IDQueue struct {
	words []uint64 // bit id&63 of words[id>>6] is set while id is queued
	cur   int      // no queued id lies below word cur
	n     int      // number of queued ids
}

// Reset empties the queue and sizes it for ids in [0, n), reusing its words
// when they are large enough and drawing them from the shared pool
// otherwise.
func (q *IDQueue) Reset(n int) {
	if q.n != 0 {
		clear(q.words)
		q.n = 0
	}
	need := (n + 63) >> 6
	if cap(q.words) < need {
		wordops.Put(q.words)
		q.words = wordops.GetZero(need)
		return
	}
	// Words past len are zero: Pop clears every bit Push set, and a shrink
	// only ever cuts off drained words.
	old := len(q.words)
	q.words = q.words[:need]
	if need > old {
		clear(q.words[old:])
	}
}

// Release returns the queue's words to the shared pool. The queue is empty
// and unsized afterwards.
func (q *IDQueue) Release() {
	wordops.Put(q.words)
	*q = IDQueue{}
}

// Len returns the number of queued ids.
func (q *IDQueue) Len() int { return q.n }

// Push queues id unless it is already queued. Ids below the cursor move it
// back, so any push order is allowed.
//
//alsrac:hotpath
func (q *IDQueue) Push(id int32) {
	w, bit := int(id>>6), uint64(1)<<(uint(id)&63)
	if q.words[w]&bit != 0 {
		return
	}
	q.words[w] |= bit
	if q.n == 0 || w < q.cur {
		q.cur = w
	}
	q.n++
}

// Pop removes and returns the smallest queued id. The queue must not be
// empty.
//
//alsrac:hotpath
func (q *IDQueue) Pop() int32 {
	for q.words[q.cur] == 0 {
		q.cur++
	}
	w := q.words[q.cur]
	q.words[q.cur] = w & (w - 1)
	q.n--
	return int32(q.cur<<6 | bits.TrailingZeros64(w))
}

// growI32 returns s resized to n entries, swapping it for a pooled slice
// when its capacity is too small. Contents are unspecified.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		wordops.PutI32(s)
		return wordops.GetI32(n)
	}
	return s[:n]
}
