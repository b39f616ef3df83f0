package attack

import (
	"fmt"
	"slices"
	"sort"
)

// Result is a solved TIDE instance: the plan plus solver bookkeeping.
type Result struct {
	Plan Plan
	// SkippedTargets lists mandatory sites the solver could not fit
	// (window or budget conflicts make full coverage impossible); the
	// plan spoofs every other key node.
	SkippedTargets []int
	// Solver names the algorithm for reports.
	Solver string
}

// SolveCSA runs the paper's CSA approximation algorithm:
//
//  1. Skeleton — insert the mandatory (key-node) stops in
//     earliest-deadline-first order, each at its cheapest window-feasible
//     position; unfittable targets are skipped (recorded), never silently
//     dropped mid-plan.
//  2. Compaction — relocate single stops (or-opt) while feasibility holds
//     to shed travel energy, freeing budget for cover traffic.
//  3. Cover packing — cost-benefit greedy: repeatedly insert the optional
//     request with the best marginal utility per marginal joule at its
//     best feasible position, until nothing fits.
//  4. Safeguard — compare against the best single-cover plan and keep the
//     better, the classic modified greedy that turns the ratio heuristic
//     into a constant-factor guarantee for budgeted coverage.
//
// The returned plan spoofs the maximum-cardinality prefix of targets the
// skeleton could schedule and earns at least a constant fraction of the
// optimal cover utility for that skeleton (≥ (1−1/e)/2 in the budgeted
// analysis; measured empirically against OPT in the evaluation).
func SolveCSA(in *Instance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	in.EnsureDistIndex()
	res := Result{Solver: "CSA"}

	skeleton, skipped := buildSkeleton(in)
	res.SkippedTargets = skipped
	compact(in, skeleton)

	greedyOrd := packCovers(in, append([]int(nil), skeleton...))
	greedyPlan, err := in.Evaluate(greedyOrd, false)
	if err != nil {
		return Result{}, fmt.Errorf("attack: CSA produced invalid plan: %w", err)
	}

	// Modified-greedy safeguard: best single cover appended to the bare
	// skeleton can beat the ratio greedy when one huge request exists.
	if single, ok := bestSingleCover(in, skeleton); ok && single.UtilityJ > greedyPlan.UtilityJ {
		greedyPlan = single
	}
	res.Plan = greedyPlan
	return res, nil
}

// buildSkeleton inserts mandatory sites EDF-first at cheapest feasible
// positions. It returns the route and the indices it could not place.
func buildSkeleton(in *Instance) (route []int, skipped []int) {
	targets := in.Mandatories()
	sort.Slice(targets, func(a, b int) bool {
		wa, wb := in.Sites[targets[a]].Window, in.Sites[targets[b]].Window
		if wa.D != wb.D {
			return wa.D < wb.D
		}
		return targets[a] < targets[b]
	})
	route = make([]int, 0, len(targets))
	for _, t := range targets {
		if pos, ok := cheapestFeasibleInsertion(in, route, t); ok {
			route = insertAt(route, pos, t)
		} else {
			skipped = append(skipped, t)
		}
	}
	return route, skipped
}

// cheapestFeasibleInsertion finds the position (0..len(route)) where
// inserting site idx keeps the route feasible at minimal added energy.
func cheapestFeasibleInsertion(in *Instance, route []int, idx int) (int, bool) {
	baseEnergy := 0.0
	if len(route) > 0 {
		if p, err := in.Evaluate(route, false); err == nil {
			baseEnergy = p.EnergyJ
		}
	}
	bestPos, bestCost, found := 0, 0.0, false
	cand := make([]int, 0, len(route)+1)
	for pos := 0; pos <= len(route); pos++ {
		cand = cand[:0]
		cand = append(cand, route[:pos]...)
		cand = append(cand, idx)
		cand = append(cand, route[pos:]...)
		p, err := in.Evaluate(cand, false)
		if err != nil {
			continue
		}
		cost := p.EnergyJ - baseEnergy
		if !found || cost < bestCost {
			bestPos, bestCost, found = pos, cost, true
		}
	}
	return bestPos, found
}

// compact applies or-opt relocation: move single stops to cheaper feasible
// positions until no improving move remains (bounded passes).
func compact(in *Instance, route []int) {
	if len(route) < 3 {
		return
	}
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		cur, err := in.Evaluate(route, false)
		if err != nil {
			return
		}
		for i := 0; i < len(route); i++ {
			moved := route[i]
			rest := append(append([]int(nil), route[:i]...), route[i+1:]...)
			for pos := 0; pos <= len(rest); pos++ {
				if pos == i {
					continue
				}
				cand := insertAt(append([]int(nil), rest...), pos, moved)
				p, err := in.Evaluate(cand, false)
				if err == nil && p.EnergyJ < cur.EnergyJ-1e-9 {
					copy(route, cand)
					cur = p
					improved = true
					break
				}
			}
		}
		if !improved {
			return
		}
	}
}

// packCovers greedily inserts optional sites by marginal utility per
// marginal joule: each round inserts the site and position with the best
// ratio, ties going to the lower site index, then the lower position.
//
// The packer is lazy. It caches each unused site's best insertion and,
// after each round, re-checks only what the round can have changed. The
// cost of inserting a site into an edge depends only on the edge's two
// ends, and an insertion elsewhere only makes every other edge harder to
// use: later arrivals, less slack, less budget (Validate keeps durations,
// powers and travel costs non-negative). So a cached edge that
// still fits stays its site's best among the old edges, and only the
// round's two new edges can beat it; a site is rescanned only when its
// edge was split or has stopped fitting. A site that fits nowhere is
// dropped: by the triangle inequality, fitting it next to the inserted
// site x, on either side, implies it fitted the edge x split.
func packCovers(in *Instance, route []int) []int {
	rs := newRouteState(in)
	if !rs.Recompute(route) {
		return route
	}
	// at[e+1] is the position of the edge leaving endpoint e (-1 is the
	// depot), i.e. one past e's stop; 0 for sites off the route.
	at := make([]int, len(in.Sites)+1)
	for i, idx := range route {
		at[idx+1] = i + 1
	}
	best := make([]coverSlot, len(in.Sites))
	var cands []int
	for idx := range in.Sites {
		if s := &in.Sites[idx]; !s.Mandatory && s.UtilJ > 0 && at[idx+1] == 0 {
			best[idx] = scanCover(rs, idx)
			cands = append(cands, idx)
		}
	}
	for {
		cands = slices.DeleteFunc(cands, func(idx int) bool { return best[idx].ratio == 0 })
		if len(cands) == 0 {
			return route
		}
		pick := cands[0]
		for _, idx := range cands[1:] {
			if best[idx].ratio > best[pick].ratio {
				pick = idx
			}
		}
		a, pos := best[pick].from, best[pick].pos
		best[pick] = coverSlot{}
		route = insertAt(route, pos, pick)
		for i := pos; i < len(route); i++ {
			at[route[i]+1] = i + 1
		}
		if !rs.Recompute(route) {
			return route
		}
		for _, idx := range cands {
			b := &best[idx]
			if b.ratio == 0 {
				continue // the site just placed
			}
			if b.from != a {
				b.pos = at[b.from+1]
				if _, ok := rs.CheckInsert(b.pos, idx); ok {
					b.offer(rs, idx, pos)
					b.offer(rs, idx, pos+1)
					continue
				}
			}
			*b = scanCover(rs, idx) // its edge was split or stopped fitting
		}
	}
}

// coverSlot is a site's best insertion into the current route: the edge
// is named by its from-endpoint (-1 for the depot), which survives
// insertions elsewhere; pos is where that edge sits. ratio 0 means no
// position fits.
type coverSlot struct {
	ratio     float64
	from, pos int
}

// offer replaces the slot with the insertion of idx at pos when that is
// feasible and better by (ratio desc, pos asc).
func (b *coverSlot) offer(rs *routeState, idx, pos int) {
	cost, ok := rs.CheckInsert(pos, idx)
	if !ok {
		return
	}
	if cost <= 0 {
		cost = 1e-9 // free insertion: effectively infinite ratio
	}
	r := rs.in.Sites[idx].UtilJ / cost
	if r > b.ratio || (r == b.ratio && pos < b.pos) {
		b.ratio, b.pos, b.from = r, pos, -1
		if pos > 0 {
			b.from = rs.route[pos-1]
		}
	}
}

// scanCover finds idx's best insertion over every position that can meet
// its deadline.
func scanCover(rs *routeState, idx int) coverSlot {
	var b coverSlot
	for pos, last := 0, rs.maxPos(idx); pos <= last; pos++ {
		b.offer(rs, idx, pos)
	}
	return b
}

// bestSingleCover returns the best plan consisting of the skeleton plus
// exactly one cover, or ok=false when no cover fits.
func bestSingleCover(in *Instance, skeleton []int) (Plan, bool) {
	rs := newRouteState(in)
	if !rs.Recompute(skeleton) {
		return Plan{}, false
	}
	bestIdx, bestPos := -1, 0
	var bestUtil float64
	for idx := range in.Sites {
		s := &in.Sites[idx]
		if s.Mandatory || s.UtilJ <= 0 || s.UtilJ <= bestUtil {
			continue
		}
		for pos, last := 0, rs.maxPos(idx); pos <= last; pos++ {
			if _, ok := rs.CheckInsert(pos, idx); ok {
				bestIdx, bestPos, bestUtil = idx, pos, s.UtilJ
				break
			}
		}
	}
	if bestIdx < 0 {
		return Plan{}, false
	}
	cand := insertAt(append([]int(nil), skeleton...), bestPos, bestIdx)
	p, err := in.Evaluate(cand, false)
	if err != nil {
		return Plan{}, false
	}
	return p, true
}

func insertAt(s []int, pos, v int) []int {
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}
