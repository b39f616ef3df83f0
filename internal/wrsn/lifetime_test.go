package wrsn

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

func TestForecastClosedForm(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	node, err := nw.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	drain := nw.DrainWatts(0)
	f, err := nw.ForecastAt(0, 100, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	level := node.Battery.Level()
	threshold := 0.3 * node.Battery.Capacity()
	wantReq := 100 + (level-threshold)/drain
	wantDeath := 100 + level/drain
	if math.Abs(f.RequestAt-wantReq) > 1e-9 {
		t.Errorf("RequestAt = %v, want %v", f.RequestAt, wantReq)
	}
	if math.Abs(f.DeathAt-wantDeath) > 1e-9 {
		t.Errorf("DeathAt = %v, want %v", f.DeathAt, wantDeath)
	}
	if w := f.Window(); math.Abs(w-(wantDeath-wantReq)) > 1e-9 {
		t.Errorf("Window = %v", w)
	}
}

func TestForecastBelowThreshold(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	node, _ := nw.Node(0)
	node.Battery.SetLevel(0.1 * node.Battery.Capacity())
	f, err := nw.ForecastAt(0, 500, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if f.RequestAt != 500 {
		t.Errorf("below-threshold RequestAt = %v, want now (500)", f.RequestAt)
	}
}

func TestForecastDeadNode(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	node, _ := nw.Node(0)
	node.Battery.SetLevel(0)
	f, err := nw.ForecastAt(0, 7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if f.RequestAt != 7 || f.DeathAt != 7 {
		t.Errorf("dead forecast = %+v", f)
	}
}

func TestForecastErrors(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if _, err := nw.ForecastAt(5, 0, 0.3); err == nil {
		t.Error("out-of-range forecast accepted")
	}
	// Invalid fraction falls back to the default rather than erroring.
	f, err := nw.ForecastAt(0, 0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(f.RequestAt, 1) {
		t.Error("fallback fraction produced no request")
	}
}

func TestAdvanceEnergy(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(2, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	n0, _ := nw.Node(0)
	before := n0.Battery.Level()
	died := nw.AdvanceEnergy(1000)
	if len(died) != 0 {
		t.Fatalf("unexpected deaths: %v", died)
	}
	drained := before - n0.Battery.Level()
	want := nw.DrainWatts(0) * 1000
	if math.Abs(drained-want) > 1e-9 {
		t.Errorf("drained %v, want %v", drained, want)
	}
	if nw.AdvanceEnergy(0) != nil || nw.AdvanceEnergy(-5) != nil {
		t.Error("non-positive dt advanced energy")
	}
}

func TestAdvanceEnergyDeath(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(2, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	n1, _ := nw.Node(1)
	n1.Battery.SetLevel(nw.DrainWatts(1) * 10) // 10 seconds of life
	died := nw.AdvanceEnergy(11)
	if len(died) != 1 || died[0] != 1 {
		t.Fatalf("died = %v, want [1]", died)
	}
}

func TestNextDepletion(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(3, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	// Node 0 relays the most, so with equal batteries it dies first.
	at, who := nw.NextDepletion(50)
	if who != 0 {
		t.Errorf("first to die = %v, want 0", who)
	}
	n0, _ := nw.Node(0)
	want := 50 + n0.Battery.Level()/nw.DrainWatts(0)
	if math.Abs(at-want) > 1e-6 {
		t.Errorf("depletion at %v, want %v", at, want)
	}
	// Exact consistency: advancing to just before must kill nobody;
	// crossing it must kill node 0.
	if died := nw.AdvanceEnergy(at - 50 - 1); len(died) != 0 {
		t.Fatalf("premature deaths: %v", died)
	}
	if died := nw.AdvanceEnergy(2); len(died) != 1 || died[0] != 0 {
		t.Fatalf("died = %v, want [0]", died)
	}
	// After everyone dies, NextDepletion reports +Inf.
	for _, n := range nw.Nodes() {
		n.Battery.SetLevel(0)
	}
	at, who = nw.NextDepletion(0)
	if !math.IsInf(at, 1) || who != ParentNone {
		t.Errorf("NextDepletion on dead network = %v, %v", at, who)
	}
}

func TestForecastAllCoversEveryNode(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(4, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	fs := nw.ForecastAll(0, 0.3)
	if len(fs) != 4 {
		t.Fatalf("forecast count = %d", len(fs))
	}
	for i, f := range fs {
		if f.ID != NodeID(i) {
			t.Errorf("forecast %d has ID %v", i, f.ID)
		}
		if f.DeathAt <= f.RequestAt {
			t.Errorf("node %d: death %v before request %v", i, f.DeathAt, f.RequestAt)
		}
	}
}

// TestStepKernelMatchesSeparatePasses pins the fused step kernel to the
// passes it replaces: over random batteries its deaths, forecast and
// post-step levels must equal AdvanceEnergy(dt) followed by
// NextDepletion(now+dt) bit for bit, its low list must be exactly the
// survivors at or below the request threshold, and running it over
// disjoint ascending ID sets and merging by ID and (time, ID) must give
// the same answer. Isolated nodes share one drain rate and draw levels
// from a small set of low levels, so forecasts tie exactly and the
// lowest-ID rule is exercised; some levels equal one step's drain, some nodes start dead
// or failed, and dt covers zero and negative lengths.
func TestStepKernelMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var specs []NodeSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, NodeSpec{Pos: geom.Pt(rng.Float64()*160-80, rng.Float64()*160-80), GenBps: 500 + 3000*rng.Float64()})
	}
	for i := 0; i < 20; i++ {
		specs = append(specs, NodeSpec{Pos: geom.Pt(1000+100*float64(i), 1000)})
	}
	base := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50})
	n := base.Len()
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	const frac = DefaultRequestFraction
	tieLevels := []float64{1, 2, 3}
	ties := 0
	for trial := 0; trial < 300; trial++ {
		now := rng.Float64() * 1e6
		dt := []float64{0, -1, 900, rng.Float64() * 5e4}[rng.Intn(4)]
		levels := make([]float64, n)
		failed := make([]bool, n)
		for i := range levels {
			switch r := rng.Float64(); {
			case i >= 40 && r < 0.9:
				levels[i] = tieLevels[rng.Intn(len(tieLevels))]
			case r < 0.4:
				levels[i] = base.DrainWatts(NodeID(i)) * dt
			case r < 0.45:
				levels[i] = 0
			default:
				levels[i] = rng.Float64() * DefaultBatteryJ
			}
			failed[i] = rng.Float64() < 0.05
		}
		fork := func() *Network {
			f := base.Fork()
			for i, nd := range f.Nodes() {
				nd.Battery.SetLevel(levels[i])
				if failed[i] {
					nd.Fail()
				}
			}
			return f
		}

		ref := fork()
		wantDied := ref.AdvanceEnergy(dt)
		wantT, wantWho := ref.NextDepletion(now + dt)
		var wantLow []NodeID
		atBest := 0
		for _, nd := range ref.Nodes() {
			if nd.Alive() && nd.Battery.Level() <= frac*nd.Battery.Capacity() {
				wantLow = append(wantLow, nd.ID)
			}
			if d := ref.DrainWatts(nd.ID); nd.Alive() && d > 0 && now+dt+nd.Battery.Level()/d == wantT {
				atBest++
			}
		}
		if atBest > 1 {
			ties++
		}

		got := fork()
		died, low, tt, who := got.StepKernel(all, dt, now+dt, frac, nil, nil)
		if !slices.Equal(died, wantDied) {
			t.Fatalf("trial %d: died %v, want %v", trial, died, wantDied)
		}
		if math.Float64bits(tt) != math.Float64bits(wantT) || who != wantWho {
			t.Fatalf("trial %d: forecast (%v, %d), want (%v, %d)", trial, tt, who, wantT, wantWho)
		}
		if !slices.Equal(low, wantLow) {
			t.Fatalf("trial %d: low %v, want %v", trial, low, wantLow)
		}
		if !reflect.DeepEqual(got.State(), ref.State()) {
			t.Fatalf("trial %d: post-step batteries differ from AdvanceEnergy's", trial)
		}

		// Disjoint ascending ID sets, merged as the sharded stepper does.
		split := fork()
		sets := make([][]NodeID, 3)
		for _, id := range all {
			s := rng.Intn(len(sets))
			sets[s] = append(sets[s], id)
		}
		var sDied, sLow []NodeID
		sT, sWho := math.Inf(1), ParentNone
		for _, ids := range sets {
			d, l, st, sw := split.StepKernel(ids, dt, now+dt, frac, nil, nil)
			sDied, sLow = append(sDied, d...), append(sLow, l...)
			if st < sT || (st == sT && sw < sWho) {
				sT, sWho = st, sw
			}
		}
		slices.Sort(sDied)
		slices.Sort(sLow)
		if !slices.Equal(sDied, wantDied) || !slices.Equal(sLow, wantLow) ||
			math.Float64bits(sT) != math.Float64bits(wantT) || sWho != wantWho {
			t.Fatalf("trial %d: split kernel (%v, %v, %v, %d), want (%v, %v, %v, %d)",
				trial, sDied, sLow, sT, sWho, wantDied, wantLow, wantT, wantWho)
		}
	}
	if ties == 0 {
		t.Fatal("no trial had a tied forecast; the lowest-ID rule went unexercised")
	}
	t.Logf("%d of 300 trials had a tied forecast", ties)
}
