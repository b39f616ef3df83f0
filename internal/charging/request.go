// Package charging implements the on-demand charging architecture a WRSN
// runs in steady state: nodes whose batteries fall below a threshold issue
// charging requests; a scheduler orders the pending queue; the mobile
// charger serves requests with focused (constructive) wireless power
// sessions. The spoofing attack reuses this machinery as its cover traffic.
package charging

import (
	"fmt"
	"sort"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Request is a node's plea for energy.
type Request struct {
	// Node identifies the requester.
	Node wrsn.NodeID
	// Pos is the requester's location (denormalized for scheduler use).
	Pos geom.Point
	// IssuedAt is the request time in seconds.
	IssuedAt float64
	// Deadline is the projected death time if never charged; schedulers
	// treat it as the request's hard deadline.
	Deadline float64
	// NeedJ is the energy required to refill the battery at issue time.
	NeedJ float64
}

// Validate reports whether the request is well formed.
func (r Request) Validate() error {
	if r.Deadline < r.IssuedAt {
		return fmt.Errorf("charging: request for node %d has deadline %v before issue %v", r.Node, r.Deadline, r.IssuedAt)
	}
	if r.NeedJ < 0 {
		return fmt.Errorf("charging: request for node %d has negative need %v", r.Node, r.NeedJ)
	}
	return nil
}

// Queue holds pending requests with at most one outstanding request per
// node; re-issuing replaces the older entry. The zero value is ready to
// use.
type Queue struct {
	pending []Request
	byNode  map[wrsn.NodeID]int
}

// Len returns the number of pending requests.
func (q *Queue) Len() int { return len(q.pending) }

// Add inserts or replaces the node's pending request.
func (q *Queue) Add(r Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if q.byNode == nil {
		q.byNode = make(map[wrsn.NodeID]int)
	}
	if i, ok := q.byNode[r.Node]; ok {
		q.pending[i] = r
		return nil
	}
	q.byNode[r.Node] = len(q.pending)
	q.pending = append(q.pending, r)
	return nil
}

// Remove drops the node's pending request if present and reports whether
// one was removed.
func (q *Queue) Remove(id wrsn.NodeID) bool {
	i, ok := q.byNode[id]
	if !ok {
		return false
	}
	last := len(q.pending) - 1
	moved := q.pending[last]
	q.pending[i] = moved
	q.byNode[moved.Node] = i
	q.pending = q.pending[:last]
	delete(q.byNode, id)
	// When i == last the moved element was the removed one; the map entry
	// re-added above must go. Guard against resurrecting it.
	if moved.Node == id {
		delete(q.byNode, id)
	}
	return true
}

// Has reports whether the node has a pending request.
func (q *Queue) Has(id wrsn.NodeID) bool {
	_, ok := q.byNode[id]
	return ok
}

// Get returns the node's pending request.
func (q *Queue) Get(id wrsn.NodeID) (Request, bool) {
	i, ok := q.byNode[id]
	if !ok {
		return Request{}, false
	}
	return q.pending[i], true
}

// Pending returns a copy of the pending requests in insertion-stable order
// (sorted by issue time, then node ID, for determinism).
func (q *Queue) Pending() []Request {
	out := append([]Request(nil), q.pending...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].IssuedAt != out[j].IssuedAt {
			return out[i].IssuedAt < out[j].IssuedAt
		}
		return out[i].Node < out[j].Node
	})
	return out
}
