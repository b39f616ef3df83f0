package attack

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// attackInstance builds a random instance with mandatory targets, as the
// approximation experiments do.
func attackInstance(r *rng.Stream, sites, targets int) *Instance {
	in := randomTestInstance(r, sites)
	for i := 0; i < targets && i < sites; i++ {
		in.Sites[i].Mandatory = true
		in.Sites[i].Kind = VisitSpoof
		in.Sites[i].UtilJ = 0
		// Give targets generous windows so skeletons exist.
		in.Sites[i].Window.D = in.Sites[i].Window.R + 5e4
	}
	return in
}

func TestSolveCSAFeasible(t *testing.T) {
	r := rng.New(1).Split("csa")
	for trial := 0; trial < 40; trial++ {
		in := attackInstance(r, 14, 3)
		res, err := SolveCSA(in)
		if err != nil {
			t.Fatal(err)
		}
		// The returned plan must re-evaluate cleanly.
		p, err := in.Evaluate(res.Plan.Order, false)
		if err != nil {
			t.Fatalf("trial %d: CSA plan infeasible: %v", trial, err)
		}
		if p.UtilityJ != res.Plan.UtilityJ {
			t.Fatalf("trial %d: utility mismatch", trial)
		}
		// Every non-skipped target must be in the plan.
		skipped := make(map[int]bool, len(res.SkippedTargets))
		for _, s := range res.SkippedTargets {
			skipped[s] = true
		}
		inPlan := make(map[int]bool, len(res.Plan.Order))
		for _, idx := range res.Plan.Order {
			inPlan[idx] = true
		}
		for _, m := range in.Mandatories() {
			if !skipped[m] && !inPlan[m] {
				t.Fatalf("trial %d: target %d neither planned nor skipped", trial, m)
			}
			if skipped[m] && inPlan[m] {
				t.Fatalf("trial %d: target %d both planned and skipped", trial, m)
			}
		}
	}
}

func TestSolveCSAEmptyInstance(t *testing.T) {
	in := simpleInstance()
	res, err := SolveCSA(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Order) != 0 || res.Plan.UtilityJ != 0 {
		t.Errorf("empty instance produced plan %+v", res.Plan)
	}
}

func TestSolveCSACoversOnly(t *testing.T) {
	// No targets: CSA degenerates to pure utility packing and must find
	// all easily-reachable covers under a loose budget.
	in := simpleInstance(
		site(10, 0, 1e6, 5),
		site(20, 0, 1e6, 5),
		site(30, 0, 1e6, 5),
	)
	res, err := SolveCSA(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.UtilityJ != 3 {
		t.Errorf("utility = %v, want all 3 covers", res.Plan.UtilityJ)
	}
}

func TestSolveCSASkipsImpossibleTarget(t *testing.T) {
	impossible := Site{
		Pos: geom.Pt(1e6, 0), Window: Window{R: 0, D: 1}, Dur: 10,
		Mandatory: true, Kind: VisitSpoof,
	}
	in := simpleInstance(impossible, site(10, 0, 1e6, 5))
	res, err := SolveCSA(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedTargets) != 1 || res.SkippedTargets[0] != 0 {
		t.Errorf("skipped = %v", res.SkippedTargets)
	}
	if res.Plan.UtilityJ != 1 {
		t.Errorf("utility = %v", res.Plan.UtilityJ)
	}
}

// CSA's lexicographic objective: it schedules targets first. The EDF
// skeleton is itself a heuristic, so occasional instances exist where the
// exact solver fits one more target — but they must be rare, and CSA must
// never be more than one target behind.
func TestSolveCSASpoofsBeforeUtility(t *testing.T) {
	r := rng.New(2).Split("csa-lex")
	const trials = 30
	matches := 0
	for trial := 0; trial < trials; trial++ {
		in := attackInstance(r, 12, 4)
		res, err := SolveCSA(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := SolveExact(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.SpoofCount >= opt.Plan.SpoofCount {
			matches++
		}
		if res.Plan.SpoofCount < opt.Plan.SpoofCount-1 {
			t.Fatalf("trial %d: CSA spoofs %d, OPT %d — more than one behind",
				trial, res.Plan.SpoofCount, opt.Plan.SpoofCount)
		}
	}
	if matches < trials*8/10 {
		t.Fatalf("CSA matched OPT's target coverage in only %d/%d trials", matches, trials)
	}
}

// The modified-greedy guarantee holds for the fixed skeleton; against the
// *global* optimum (which may pick a different skeleton) the bound is
// statistical: most instances must clear (1−1/e)/2 and the average must be
// far above it.
func TestSolveCSAApproximationBound(t *testing.T) {
	const bound = 0.316 // (1−1/e)/2
	r := rng.New(3).Split("csa-bound")
	checked, clearing := 0, 0
	var ratioSum float64
	for trial := 0; trial < 50; trial++ {
		in := attackInstance(r, 11, 2)
		res, err := SolveCSA(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := SolveExact(in)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Plan.UtilityJ <= 0 || res.Plan.SpoofCount != opt.Plan.SpoofCount {
			continue
		}
		checked++
		ratio := res.Plan.UtilityJ / opt.Plan.UtilityJ
		ratioSum += ratio
		if ratio >= bound {
			clearing++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d comparable trials; generator too degenerate", checked)
	}
	if frac := float64(clearing) / float64(checked); frac < 0.9 {
		t.Fatalf("only %.0f%% of trials clear the bound", 100*frac)
	}
	if mean := ratioSum / float64(checked); mean < 0.75 {
		t.Fatalf("mean approximation ratio %.3f, want ≥ 0.75", mean)
	}
}

func TestInsertAt(t *testing.T) {
	s := insertAt([]int{1, 2, 3}, 1, 9)
	want := []int{1, 9, 2, 3}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("insertAt = %v", s)
		}
	}
	if got := insertAt(nil, 0, 5); len(got) != 1 || got[0] != 5 {
		t.Errorf("insertAt empty = %v", got)
	}
}

// The classic budgeted-greedy trap: one big cover the ratio greedy skips
// in favor of cheap trinkets. The best-single safeguard must save CSA.
func TestSafeguardAgainstGreedyTrap(t *testing.T) {
	// Budget fits EITHER the jackpot (utility 100, cost ~99) OR the
	// trinket (utility 2, cost ~1). Ratio greedy grabs the trinket first
	// (2/1 > 100/99) and then cannot afford the jackpot.
	jackpot := Site{Pos: geom.Pt(97, 0), Window: Window{R: 0, D: 1e9}, Dur: 1, UtilJ: 100, Kind: VisitCover}
	trinket := Site{Pos: geom.Pt(0.5, 0), Window: Window{R: 0, D: 1e9}, Dur: 0.3, UtilJ: 2, Kind: VisitCover}
	in := &Instance{
		Depot:     geom.Pt(0, 0),
		SpeedMps:  1,
		MoveJPerM: 1,
		RadiateW:  1,
		BudgetJ:   99,
		Sites:     []Site{jackpot, trinket},
	}
	res, err := SolveCSA(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.UtilityJ < 100 {
		t.Fatalf("greedy trap sprung: utility %v, want the 100 J jackpot", res.Plan.UtilityJ)
	}
}

// raceBuild is set in builds with the race detector (race_test.go).
var raceBuild bool

// referencePackCovers is the full-rescan packer that packCovers replaced:
// every round probes every unused site at every position. It is the
// oracle the lazy packer must match route for route.
func referencePackCovers(in *Instance, route []int) []int {
	used := make(map[int]bool, len(route))
	for _, idx := range route {
		used[idx] = true
	}
	rs := newRouteState(in)
	for {
		if !rs.Recompute(route) {
			return route
		}
		bestIdx, bestPos, bestRatio := -1, 0, 0.0
		for idx := range in.Sites {
			s := &in.Sites[idx]
			if s.Mandatory || used[idx] || s.UtilJ <= 0 {
				continue
			}
			for pos := 0; pos <= len(route); pos++ {
				cost, ok := rs.CheckInsert(pos, idx)
				if !ok {
					continue
				}
				if cost <= 0 {
					cost = 1e-9 // free insertion: effectively infinite ratio
				}
				ratio := s.UtilJ / cost
				if ratio > bestRatio {
					bestIdx, bestPos, bestRatio = idx, pos, ratio
				}
			}
		}
		if bestIdx < 0 {
			return route
		}
		route = insertAt(route, bestPos, bestIdx)
		used[bestIdx] = true
	}
}

// checkPackCovers packs covers into in's CSA skeleton with both packers
// and fails unless they build the same route. It returns the number of
// covers packed.
func checkPackCovers(t testing.TB, in *Instance) int {
	t.Helper()
	in.EnsureDistIndex()
	skeleton, _ := buildSkeleton(in)
	compact(in, skeleton)
	got := packCovers(in, slices.Clone(skeleton))
	want := referencePackCovers(in, slices.Clone(skeleton))
	if !slices.Equal(got, want) {
		t.Fatalf("lazy packer route %v, full rescan %v", got, want)
	}
	return len(got) - len(skeleton)
}

// packInstance salts a fuzzInstance with the packer's edge cases, chosen
// by site index: key-node targets, which form the skeleton; zero-power
// sites on top of another site, whose insertion next to it is free and
// hits the cost ≤ 0 clamp; zero-utility sites; and exact copies of an
// earlier site, which tie it on ratio at every edge.
func packInstance(seed int64, sites int) *Instance {
	in := fuzzInstance(seed, sites)
	in.RadiateW = 0 // every site's power is its own PowerW
	for i := range in.Sites {
		s := &in.Sites[i]
		s.PowerW = 50
		switch i % 7 {
		case 0:
			s.Mandatory, s.Kind, s.UtilJ = true, VisitSpoof, 0
			s.Window.D += 5e4
		case 2:
			s.Pos, s.PowerW = in.Sites[i-1].Pos, 0
		case 4:
			s.UtilJ = 0
		case 5:
			*s = in.Sites[i-3]
		}
	}
	return in
}

// The lazy packer must reproduce the full rescan exactly on planner
// instances built from scenarios: three sizes, and budgets from loose to
// starved (a starved budget makes the budget, not the windows, decide).
// The full rescan costs ~0.2 s per 400-node instance, so the larger
// sizes run fewer scenarios.
func TestPackCoversMatchesReferenceOnScenarios(t *testing.T) {
	type size struct{ n, seeds int }
	sizes := []size{{50, 60}, {200, 20}, {400, 3}}
	if testing.Short() || raceBuild {
		sizes = []size{{50, 10}, {200, 3}}
	}
	packed := 0
	for _, sz := range sizes {
		n := sz.n
		for seed := 1; seed <= sz.seeds; seed++ {
			nw, _, err := trace.DefaultScenario(uint64(seed), n).Build()
			if err != nil {
				t.Fatal(err)
			}
			in, err := BuildInstance(nw, mc.New(nw.Sink(), mc.DefaultParams()), BuilderConfig{})
			if err != nil {
				t.Fatal(err)
			}
			budget := in.BudgetJ
			for _, f := range []float64{1, 0.3, 0.1, 0.03} {
				in.BudgetJ = budget * f
				t.Run(fmt.Sprintf("n=%d/seed=%d/budget=%v", n, seed, f), func(t *testing.T) {
					packed += checkPackCovers(t, in)
				})
			}
		}
	}
	if packed == 0 {
		t.Fatal("no instance packed a cover; the comparison is vacuous")
	}
}

// Same equality on salted random instances: free insertions, zero
// utility, exact ties, sizes from a handful of sites to a few dozen.
func TestPackCoversMatchesReferenceOnEdgeCases(t *testing.T) {
	packed := 0
	for seed := int64(0); seed < 300; seed++ {
		packed += checkPackCovers(t, packInstance(seed, 3+int(seed%48)))
	}
	if packed == 0 {
		t.Fatal("no instance packed a cover; the comparison is vacuous")
	}
}

// tieInstance builds a packer instance made of exact ratio ties: every
// cover has the same duration, power and utility, so its ratio depends
// on the travel it adds alone, and every site sits on a 2×2 grid of
// 100-m spacing, so whole families of sites and edges add
// bit-identical travel. Every sixth site is a key-node target with a
// 3,000-s window and every third cover has a window cut to whole
// kiloseconds; the rest are loose. The tight windows make cached edges
// stop fitting while tied edges elsewhere still fit, so stale bounds
// meet new edges and other sites' exact ratios at equal values.
func tieInstance(seed int64, sites int) *Instance {
	in := fuzzInstance(seed, sites)
	in.Depot, in.SpeedMps, in.RadiateW = geom.Pt(0, 0), 1, 0
	for i := range in.Sites {
		s := &in.Sites[i]
		s.Pos = geom.Pt(math.Floor(s.Pos.X/500)*100, math.Floor(s.Pos.Y/500)*100)
		s.Dur, s.PowerW, s.UtilJ = 600, 50, 5000
		r, d := math.Floor(s.Window.R/1000)*1000, math.Floor(s.Window.D/1000)*1000
		switch {
		case i%6 == 0:
			s.Mandatory, s.Kind, s.UtilJ = true, VisitSpoof, 0
			s.Window = Window{R: r, D: r + 3000}
		case i%3 == 1:
			s.Window = Window{R: r, D: d}
		default:
			s.Window = Window{R: 0, D: 1e7}
		}
	}
	return in
}

// The lazy packer's tie rules must reproduce the full rescan on
// instances where ties are the rule. A stale site turns fresh only on a
// new edge that strictly beats its bound (on an equal one, an old edge
// at a lower position may still tie it), and on equal values the lower
// index wins even when it is stale and has to be rescanned first.
func TestPackCoversMatchesReferenceOnTies(t *testing.T) {
	packed := 0
	for seed := int64(0); seed < 400; seed++ {
		packed += checkPackCovers(t, tieInstance(seed, 5+int(seed%60)))
	}
	if packed == 0 {
		t.Fatal("no instance packed a cover; the comparison is vacuous")
	}
}
