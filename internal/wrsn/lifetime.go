package wrsn

import (
	"fmt"
	"math"
)

// Depletion forecasting. Under the steady-state load model each node drains
// at a constant power, so request and death times are closed-form. The
// attack planner uses these forecasts to derive each key node's time
// window: the interval between "the node asks to be charged" and "the node
// dies", inside which a spoofed charging visit is both expected by the
// network and fatal to the node.

// DefaultRequestFraction is the battery fraction at which a node issues a
// charging request, the standard on-demand-charging trigger.
const DefaultRequestFraction = 0.30

// Forecast is a node's projected energy trajectory under current loads.
type Forecast struct {
	ID NodeID
	// DrainWatts is the projected constant drain.
	DrainWatts float64
	// RequestAt is the absolute time (seconds from now's origin) at which
	// the battery crosses the request threshold; 0 when already below,
	// +Inf when it never will (no drain).
	RequestAt float64
	// DeathAt is the absolute time at which the battery empties; +Inf when
	// it never will.
	DeathAt float64
}

// Window returns the charging window [RequestAt, DeathAt] length. A dead or
// drainless node reports 0.
func (f Forecast) Window() float64 {
	if math.IsInf(f.DeathAt, 1) {
		return 0
	}
	w := f.DeathAt - f.RequestAt
	if w < 0 {
		return 0
	}
	return w
}

// ForecastAt projects node id's trajectory starting at absolute time now,
// with requests issued at the given battery fraction. Fractions outside
// (0,1) get DefaultRequestFraction.
func (nw *Network) ForecastAt(id NodeID, now, requestFrac float64) (Forecast, error) {
	if int(id) < 0 || int(id) >= len(nw.nodes) {
		return Forecast{}, fmt.Errorf("wrsn: forecast for node %d out of range", id)
	}
	if requestFrac <= 0 || requestFrac >= 1 {
		requestFrac = DefaultRequestFraction
	}
	drain := nw.DrainWatts(id)
	f := Forecast{ID: id, DrainWatts: drain}
	if !nw.aliveIdx(int(id)) {
		f.RequestAt, f.DeathAt = now, now
		return f, nil
	}
	if drain <= 0 {
		f.RequestAt, f.DeathAt = math.Inf(1), math.Inf(1)
		return f, nil
	}
	level := nw.bats[id].Level()
	threshold := requestFrac * nw.bats[id].Capacity()
	if level <= threshold {
		f.RequestAt = now
	} else {
		f.RequestAt = now + (level-threshold)/drain
	}
	f.DeathAt = now + level/drain
	return f, nil
}

// ForecastAll projects every node; see ForecastAt.
func (nw *Network) ForecastAll(now, requestFrac float64) []Forecast {
	out := make([]Forecast, len(nw.nodes))
	for i := range nw.nodes {
		f, err := nw.ForecastAt(NodeID(i), now, requestFrac)
		if err != nil {
			// Unreachable: i is always in range. Keep the zero Forecast
			// rather than panicking in library code.
			continue
		}
		out[i] = f
	}
	return out
}

// AdvanceEnergy drains every alive node for dt seconds at its current
// steady-state rate and returns the IDs of nodes that died during the
// interval. It does not recompute routing; callers decide when topology
// changes warrant a Recompute.
func (nw *Network) AdvanceEnergy(dt float64) []NodeID {
	if dt <= 0 {
		return nil
	}
	var died []NodeID
	for i := range nw.bats {
		if !nw.aliveIdx(i) {
			continue
		}
		nw.bats[i].Drain(nw.drainW[i] * dt)
		if nw.bats[i].Depleted() {
			died = append(died, NodeID(i))
		}
	}
	return died
}

// NextDepletion returns the soonest projected death time among alive nodes
// starting from now, and the node that dies then. When no node will die it
// returns (+Inf, ParentNone). Ties go to the lowest ID (strict < over an
// ascending scan).
func (nw *Network) NextDepletion(now float64) (float64, NodeID) {
	best := math.Inf(1)
	who := ParentNone
	for i := range nw.bats {
		if !nw.aliveIdx(i) {
			continue
		}
		drain := nw.drainW[i]
		if drain <= 0 {
			continue
		}
		t := now + nw.bats[i].Level()/drain
		if t < best {
			best, who = t, NodeID(i)
		}
	}
	return best, who
}

// StepKernel is the world step's fused per-node pass over ids, which
// must be ascending. For every node alive before the step it does in one
// sweep what AdvanceEnergy(dt), NextDepletion(next) and the request
// threshold test would do in three:
//
//   - it drains the node by drainW·dt; a node that empties is appended to
//     died;
//   - a survivor with a positive drain folds next + level/drain into a
//     strict-< (so lowest-ID) argmin, returned as (t, who);
//   - a survivor at or below reqFrac of its capacity is appended to low.
//
// next is the post-step clock; it is passed rather than derived because
// now+dt need not round to it. Both lists come back ascending, and the
// results are bit-identical to the separate passes (the float
// expressions are theirs). With dt <= 0 nothing drains, so the pass is
// exactly NextDepletion(next) plus the threshold scan. The kernel writes
// only the listed nodes' battery slots and reads no shared scratch, so
// concurrent calls over disjoint ID sets are race-free.
func (nw *Network) StepKernel(ids []NodeID, dt, next, reqFrac float64, died, low []NodeID) ([]NodeID, []NodeID, float64, NodeID) {
	best := math.Inf(1)
	who := ParentNone
	for _, id := range ids {
		i := int(id)
		if !nw.aliveIdx(i) {
			continue
		}
		b := &nw.bats[i]
		drain := nw.drainW[i]
		b.Drain(drain * dt)
		if b.Depleted() {
			died = append(died, id)
			continue
		}
		if drain > 0 {
			if t := next + b.Level()/drain; t < best {
				best, who = t, id
			}
		}
		if b.Level() <= reqFrac*b.Capacity() {
			low = append(low, id)
		}
	}
	return died, low, best, who
}
