package attack

import (
	"math"
	"sort"
)

// routeState is the incremental feasibility oracle for insertion-heavy
// planning. A full Evaluate of a candidate route costs O(L); routeState
// answers "can site s be inserted at position p" in O(1) after an O(L)
// Recompute, using the classic time-window slack propagation: each stop
// caches how much extra delay it can absorb (waiting eats delay) before
// any downstream window breaks.
type routeState struct {
	in    *Instance
	route []int
	// Per-stop timing, aligned with route.
	arrive, begin, end []float64
	// slack[i] is the largest delay that can hit stop i's arrival without
	// violating window i or any later window.
	slack []float64
	// travelM and radiateJ are the route's current cost components.
	travelM  float64
	radiateJ float64
}

// newRouteState builds the oracle for routes over in's sites. The
// per-stop arrays are sized once to len(in.Sites): a route visits each
// site at most once, so it can never be longer.
func newRouteState(in *Instance) *routeState {
	n := len(in.Sites)
	return &routeState{
		in:     in,
		arrive: make([]float64, 0, n),
		begin:  make([]float64, 0, n),
		end:    make([]float64, 0, n),
		slack:  make([]float64, 0, n),
	}
}

// Recompute refreshes all cached state for the route, which must not
// repeat a site. It returns false if the route violates a window (the
// oracle is then unusable).
func (rs *routeState) Recompute(route []int) bool {
	rs.route = route
	n := len(route)
	rs.arrive, rs.begin = rs.arrive[:n], rs.begin[:n]
	rs.end, rs.slack = rs.end[:n], rs.slack[:n]
	rs.travelM, rs.radiateJ = 0, 0

	prev := -1 // depot
	t := rs.in.Start
	for i, idx := range route {
		s := &rs.in.Sites[idx]
		d := rs.in.dist(prev, idx)
		rs.travelM += d
		rs.radiateJ += s.Dur * rs.sitePower(idx)
		rs.arrive[i] = t + d/rs.in.SpeedMps
		rs.begin[i] = max(rs.arrive[i], s.Window.R)
		rs.end[i] = rs.begin[i] + s.Dur
		if rs.end[i] > s.Window.D {
			return false
		}
		prev = idx
		t = rs.end[i]
	}
	// Backward slack propagation: delay δ at stop i's arrival shifts its
	// begin by max(0, arrive+δ−begin)… conservatively, waiting absorbs
	// (begin−arrive) of any delay before it propagates.
	for i := n - 1; i >= 0; i-- {
		s := &rs.in.Sites[rs.route[i]]
		own := (s.Window.D - s.Dur) - rs.begin[i] // delay stop i itself tolerates
		down := math.Inf(1)
		if i+1 < n {
			down = rs.slack[i+1] + (rs.begin[i+1] - rs.arrive[i+1])
		}
		rs.slack[i] = min(own, down)
	}
	return true
}

func (rs *routeState) sitePower(idx int) float64 {
	if pw := rs.in.Sites[idx].PowerW; pw != 0 {
		return pw
	}
	return rs.in.RadiateW
}

// EnergyJ returns the current route's total energy.
func (rs *routeState) EnergyJ() float64 {
	return rs.travelM*rs.in.MoveJPerM + rs.radiateJ
}

// CheckInsert reports whether inserting site idx at position pos
// (0 ≤ pos ≤ len(route)) keeps every window and the budget satisfied, and
// if so returns the marginal energy cost. It runs in O(1).
func (rs *routeState) CheckInsert(pos, idx int) (float64, bool) {
	s := &rs.in.Sites[idx]
	from := -1 // depot
	prevEnd := rs.in.Start
	if pos > 0 {
		from = rs.route[pos-1]
		prevEnd = rs.end[pos-1]
	}
	dIn := rs.in.dist(from, idx)
	arrive := prevEnd + dIn/rs.in.SpeedMps
	begin := max(arrive, s.Window.R)
	end := begin + s.Dur
	if end > s.Window.D {
		return 0, false
	}
	var addTravel float64
	if pos < len(rs.route) {
		next := rs.route[pos]
		dOut := rs.in.dist(idx, next)
		oldLeg := rs.in.dist(from, next)
		addTravel = dIn + dOut - oldLeg
		// Delay imposed on the old stop at position pos, measured at its
		// arrival; its own waiting buffer absorbs delay before the begin
		// shifts, so the tolerance is slack (begin-relative) plus wait.
		newArriveNext := end + dOut/rs.in.SpeedMps
		delay := newArriveNext - rs.arrive[pos]
		wait := rs.begin[pos] - rs.arrive[pos]
		if delay > rs.slack[pos]+wait+1e-9 {
			return 0, false
		}
	} else {
		addTravel = dIn
	}
	addEnergy := addTravel*rs.in.MoveJPerM + s.Dur*rs.sitePower(idx)
	if rs.EnergyJ()+addEnergy > rs.in.BudgetJ {
		return 0, false
	}
	return addEnergy, true
}

// maxPos returns the last position at which inserting site idx can meet
// its own deadline; CheckInsert rejects every later position. Inserting
// after stop i finishes no earlier than end[i]+Dur, end[] never decreases
// along the route, and float addition is monotone, so every position
// after the first stop with end[i]+Dur > D fails the window check
// exactly as CheckInsert would.
func (rs *routeState) maxPos(idx int) int {
	s := &rs.in.Sites[idx]
	return sort.Search(len(rs.route), func(i int) bool { return rs.end[i]+s.Dur > s.Window.D })
}
