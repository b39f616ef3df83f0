package world

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// testWorld builds a small world over the default scenario with the
// given hand-built fault plan.
func testWorld(t *testing.T, ctx context.Context, plan *faults.Plan) (*W, *ledger.L, *wrsn.Network) {
	t.Helper()
	nw, _, err := trace.DefaultScenario(7, 60).Build()
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	w := New(ctx, nw, led, Params{
		PollSec:     900,
		RequestFrac: wrsn.DefaultRequestFraction,
		Faults:      plan,
	}, nil)
	return w, led, nw
}

// TestCatchUpReentrancy: fault handlers run inside engine events and
// their Sync hook calls CatchUp mid-pump, while the world.step chain is
// itself advancing via CatchUp. Fault times deliberately land off the
// poll grid so every fault event interleaves with a step event at a
// different timestamp. The chain must survive and land exactly on the
// advance target.
func TestCatchUpReentrancy(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{T: 1234.5, Kind: faults.NodeDown, Node: 3, Until: 5000.5},
		{T: 2000.1, Kind: faults.ChargerDown, Node: -1, Until: 3500.9},
		{T: 3500.9, Kind: faults.ChargerUp, Node: -1},
		{T: 5000.5, Kind: faults.NodeUp, Node: 3},
		{T: 6100.3, Kind: faults.SinkDown, Node: -1, Until: 7200.7},
		{T: 7200.7, Kind: faults.SinkUp, Node: -1},
	}}
	w, led, nw := testWorld(t, context.Background(), plan)

	// Advance in two legs, the first stopping inside the outage window.
	w.AdvanceTo(6500)
	if got := w.Now(); got != 6500 {
		t.Fatalf("Now() = %v after AdvanceTo(6500)", got)
	}
	if !w.SinkDown() {
		t.Error("sink outage window not open at t=6500")
	}
	w.AdvanceTo(10000)
	if got := w.Now(); got != 10000 {
		t.Fatalf("Now() = %v after AdvanceTo(10000)", got)
	}
	if w.SinkDown() {
		t.Error("sink outage window still open after its SinkUp event")
	}
	if led.Faults.NodeFailures != 1 || led.Faults.NodeRecoveries != 1 {
		t.Errorf("node fault counts = %d/%d, want 1/1",
			led.Faults.NodeFailures, led.Faults.NodeRecoveries)
	}
	if led.Faults.ChargerBreakdowns != 1 || led.Faults.ChargerRepairs != 1 {
		t.Errorf("charger fault counts = %d/%d, want 1/1",
			led.Faults.ChargerBreakdowns, led.Faults.ChargerRepairs)
	}
	if want := 3500.9 - 2000.1; math.Abs(w.ChargerDownSecTotal()-want) > 1e-9 {
		t.Errorf("ChargerDownSecTotal = %v, want %v", w.ChargerDownSecTotal(), want)
	}
	n, err := nw.Node(3)
	if err != nil {
		t.Fatal(err)
	}
	if n.Failed() {
		t.Error("node 3 still hardware-failed after its NodeUp event")
	}
	w.CloseFaultWindows()
	if want := 7200.7 - 6100.3; math.Abs(led.Faults.SinkDownSec-want) > 1e-9 {
		t.Errorf("SinkDownSec = %v, want %v", led.Faults.SinkDownSec, want)
	}
}

// TestCatchUpReentrantCall: CatchUp called from inside an engine handler
// (the fleet's dispatch pattern) while fault events are in flight must
// not double-step or stall the step chain.
func TestCatchUpReentrantCall(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{T: 950.5, Kind: faults.ChargerDown, Node: -1, Until: 1800.5},
		{T: 1800.5, Kind: faults.ChargerUp, Node: -1},
	}}
	w, led, _ := testWorld(t, context.Background(), plan)
	var sawDown bool
	err := w.Engine().At(1000, "test.reentrant", func(e *sim.Engine) {
		w.CatchUp(e.Now())
		sawDown = w.ChargerDownUntil() > 0
	})
	if err != nil {
		t.Fatal(err)
	}
	w.AdvanceTo(3000)
	if got := w.Now(); got != 3000 {
		t.Fatalf("Now() = %v after AdvanceTo(3000)", got)
	}
	if !sawDown {
		t.Error("handler-side CatchUp did not observe the already-applied breakdown")
	}
	if led.Faults.ChargerBreakdowns != 1 || led.Faults.ChargerRepairs != 1 {
		t.Errorf("charger fault counts = %d/%d, want 1/1",
			led.Faults.ChargerBreakdowns, led.Faults.ChargerRepairs)
	}
}

// TestCancelMidFaultWindow: a context canceled while a fault window is
// open stops the advance at the next boundary, and CloseFaultWindows
// still accounts the open window's downtime up to the stopped clock.
func TestCancelMidFaultWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := &faults.Plan{Events: []faults.Event{
		{T: 1000.5, Kind: faults.ChargerDown, Node: -1, Until: 90000},
		{T: 2000.5, Kind: faults.SinkDown, Node: -1, Until: 90000},
	}}
	w, led, _ := testWorld(t, ctx, plan)
	w.AdvanceTo(1500)
	if w.ChargerDownUntil() != 90000 {
		t.Fatalf("breakdown window not open: until = %v", w.ChargerDownUntil())
	}
	cancel()
	w.AdvanceTo(50000)
	if !w.Canceled() {
		t.Fatal("Canceled() = false after cancel")
	}
	if w.Now() > 2400 {
		t.Errorf("Now() = %v; canceled advance ran on", w.Now())
	}
	stopped := w.Now()
	w.CloseFaultWindows()
	if want := stopped - 1000.5; math.Abs(led.Faults.ChargerDownSec-want) > 1e-9 {
		t.Errorf("ChargerDownSec = %v, want %v (downtime up to the stopped clock)",
			led.Faults.ChargerDownSec, want)
	}
	// The never-repaired window stays fatal: injected but not survived.
	if led.Faults.ChargerRepairs != 0 {
		t.Errorf("ChargerRepairs = %d for a window that never closed", led.Faults.ChargerRepairs)
	}
	if led.Faults.Fatal() == 0 {
		t.Error("open windows at cancel must count as fatal")
	}
}

// TestCatchUpAfterCancelIsNoOp: CatchUp on a canceled world must return
// immediately without moving the clock.
func TestCatchUpAfterCancelIsNoOp(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w, _, _ := testWorld(t, ctx, nil)
	w.AdvanceTo(3000)
	cancel()
	before := w.Now()
	w.CatchUp(9000)
	if w.Now() != before {
		t.Errorf("CatchUp moved a canceled world: %v -> %v", before, w.Now())
	}
}

// referenceStep is the world step as it was before the fused kernel: a
// full depletion forecast, a full drain, and a full request scan, each
// its own pass over the network, with no forecast kept between steps.
func referenceStep(w *W, target float64) {
	step := min(target, w.now+w.p.PollSec)
	if dt, _ := w.nw.NextDepletion(w.now); dt > w.now && dt < step {
		step = dt
	}
	died := w.nw.AdvanceEnergy(step - w.now)
	w.now = step
	if len(died) > 0 {
		for _, id := range died {
			w.recordDeath(id)
		}
		w.nw.Recompute()
	}
	if !w.sinkDown {
		for _, n := range w.nw.Nodes() {
			if w.wantsCharge(n.ID) {
				w.issueRequest(n.ID)
			}
		}
	}
	w.Sample()
	w.audit()
	if w.nw.Policy() == wrsn.PolicyEnergyAware {
		w.nw.Recompute()
	}
}

// oracleWorld builds one side of the differential test: a 60-node world
// with low starting batteries (so nodes request and die within days),
// sampling and live audits on, and, when loss > 0, a fault plan whose
// only fault is request loss.
func oracleWorld(t *testing.T, policy wrsn.RoutingPolicy, shards int, loss float64) (*W, *ledger.L) {
	t.Helper()
	sc := trace.DefaultScenario(11, 60)
	sc.Policy = policy
	sc.Deploy.InitialFracMin, sc.Deploy.InitialFracMax = 0.05, 0.45
	nw, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	var plan *faults.Plan
	if loss > 0 {
		plan = faults.New(faults.Spec{Seed: 5, RequestLossProb: loss}, nw.Len())
	}
	led := ledger.New()
	w := New(context.Background(), nw, led, Params{
		PollSec:         900,
		RequestFrac:     wrsn.DefaultRequestFraction,
		SampleEverySec:  1800,
		AuditEverySec:   3600,
		PendingGraceSec: 3600,
		Detectors:       detect.Suite(),
		Faults:          plan,
		Shards:          shards,
	}, nil)
	w.StartAuditing(3600)
	return w, led
}

// checkTwins requires the fused world to equal the reference world
// exactly: clock, forecast, deaths, queue, ledger, batteries, routing,
// cooldowns and backoff.
func checkTwins(t *testing.T, at string, f, r *W) {
	t.Helper()
	if math.Float64bits(f.now) != math.Float64bits(r.now) {
		t.Fatalf("%s: clock %v, reference %v", at, f.now, r.now)
	}
	ft, fid := f.nextDepletion()
	rt, rid := r.nw.NextDepletion(r.now)
	if math.Float64bits(ft) != math.Float64bits(rt) || fid != rid {
		t.Fatalf("%s: forecast (%v, %d), reference (%v, %d)", at, ft, fid, rt, rid)
	}
	fl, rl := *f.led, *r.led
	if !slices.Equal(fl.Audit.Deaths, rl.Audit.Deaths) {
		t.Fatalf("%s: deaths %v, reference %v", at, fl.Audit.Deaths, rl.Audit.Deaths)
	}
	if fq, rq := f.qu.Pending(), r.qu.Pending(); !slices.Equal(fq, rq) {
		t.Fatalf("%s: queue %v, reference %v", at, fq, rq)
	}
	// The long append-only slices compare elementwise (reflect.DeepEqual
	// on them would dominate the test's run time); DeepEqual covers the
	// rest of the ledger.
	if !slices.Equal(fl.Samples, rl.Samples) || !slices.Equal(fl.Audit.Unserved, rl.Audit.Unserved) ||
		!slices.Equal(fl.Audit.Sessions, rl.Audit.Sessions) {
		t.Fatalf("%s: ledger samples or audit evidence differ", at)
	}
	fl.Samples, rl.Samples = nil, nil
	fl.Audit, rl.Audit = detect.Audit{}, detect.Audit{}
	if !reflect.DeepEqual(fl, rl) {
		t.Fatalf("%s: ledgers differ:\n%+v\nreference:\n%+v", at, fl, rl)
	}
	if !slices.Equal(f.nw.State().Nodes, r.nw.State().Nodes) {
		t.Fatalf("%s: node states differ", at)
	}
	for i := 0; i < f.nw.Len(); i++ {
		id := wrsn.NodeID(i)
		if f.nw.Parent(id) != r.nw.Parent(id) || math.Float64bits(f.nw.DrainWatts(id)) != math.Float64bits(r.nw.DrainWatts(id)) {
			t.Fatalf("%s: node %d routing differs", at, i)
		}
	}
	if !slices.Equal(f.cool, r.cool) || !slices.Equal(f.retxAttempt, r.retxAttempt) || !slices.Equal(f.retxNext, r.retxNext) {
		t.Fatalf("%s: cooldown or backoff tables differ", at)
	}
}

// TestFusedStepMatchesReference drives a fused world and a reference
// world (referenceStep, sequential) through the same random interleaving
// of steps and outside events, and requires them to agree exactly after
// every step and every event. Steps target the forecast depletion
// instant and its float neighbors as well as ordinary poll ticks, and
// run both one at a time and through the engine's step chain (which
// schedules from the kept forecast). The events are what can make a kept
// forecast stale: focus and spoof charges of the forecast's node,
// defense drains that do and do not kill, node failure and repair — plus
// sink outages, cooldowns and served requests, which must not. It covers
// both routing policies with fixed and energy-aware edge weights, one and
// two shards, and lossless and lossy request delivery.
func TestFusedStepMatchesReference(t *testing.T) {
	for _, policy := range []wrsn.RoutingPolicy{wrsn.PolicyShortestDistance, wrsn.PolicyEnergyAware} {
		for _, shards := range []int{1, 2} {
			for _, loss := range []float64{0, 0.3} {
				name := fmt.Sprintf("%v/shards=%d/loss=%v", policy, shards, loss)
				t.Run(name, func(t *testing.T) {
					f, fl := oracleWorld(t, policy, shards, loss)
					r, _ := oracleWorld(t, policy, 1, loss)
					runOracle(t, f, r, rand.New(rand.NewSource(int64(shards)*7+int64(policy))))
					if len(fl.Audit.Deaths) == 0 || fl.Issued == 0 {
						t.Fatalf("run too tame: %d deaths, %d requests", len(fl.Audit.Deaths), fl.Issued)
					}
					if loss > 0 && fl.Faults.RequestsLost == 0 {
						t.Fatal("lossy run lost no request")
					}
				})
			}
		}
	}
}

// runOracle applies a random sequence of steps and outside events to the
// fused world f and the reference world r alike, checking them against
// each other after every step and every event.
func runOracle(t *testing.T, f, r *W, rng *rand.Rand) {
	t.Helper()
	n := r.nw.Len()
	both := func(fn func(w *W)) {
		fn(f)
		fn(r)
	}
	for i := 0; i < 400; i++ {
		dep, argmin := r.nw.NextDepletion(r.now)
		if argmin < 0 {
			argmin = wrsn.NodeID(rng.Intn(n))
		}
		var at string
		switch k := rng.Intn(100); {
		case k < 40:
			target := r.now + r.p.PollSec*(0.1+3*rng.Float64())
			if !math.IsInf(dep, 1) && rng.Intn(3) > 0 {
				target = []float64{
					dep, math.Nextafter(dep, math.Inf(-1)), math.Nextafter(dep, math.Inf(1)),
					dep - 1, dep + 1, dep + r.p.PollSec/2,
				}[rng.Intn(6)]
			}
			if target <= r.now {
				target = math.Nextafter(r.now, math.Inf(1))
			}
			if rng.Intn(2) == 0 {
				at = fmt.Sprintf("event %d: step to %v", i, target)
				for r.now < target {
					f.step(target)
					referenceStep(r, target)
					checkTwins(t, at, f, r)
				}
			} else {
				at = fmt.Sprintf("event %d: step chain to %v", i, target)
				err := f.AdvanceToHook(target, func() error {
					referenceStep(r, target)
					checkTwins(t, at, f, r)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		case k < 55:
			// A focus session tops the forecast's node up; a spoof leaves
			// it a trickle.
			j := 1 + 3000*rng.Float64()
			if rng.Intn(2) == 0 {
				j = 0.01 * rng.Float64()
			}
			at = fmt.Sprintf("event %d: charge node %d by %v J", i, argmin, j)
			both(func(w *W) { w.Charge(argmin, j) })
		case k < 70:
			id := argmin
			if rng.Intn(4) == 0 {
				id = wrsn.NodeID(rng.Intn(n))
			}
			level := r.nw.Nodes()[id].Battery.Level()
			j := level * (0.05 + 0.9*rng.Float64())
			if rng.Intn(5) == 0 {
				j = level + 1
			}
			at = fmt.Sprintf("event %d: defense drain of node %d by %v J", i, id, j)
			both(func(w *W) { w.Drain(id, j) })
		case k < 78:
			id := rng.Intn(n)
			if r.nw.Nodes()[id].Failed() {
				at = fmt.Sprintf("event %d: repair node %d", i, id)
				both(func(w *W) { w.repairNode(id) })
			} else {
				at = fmt.Sprintf("event %d: fail node %d", i, id)
				both(func(w *W) { w.failNode(id) })
			}
		case k < 85:
			at = fmt.Sprintf("event %d: sink toggle", i)
			if r.sinkDown {
				both(func(w *W) { w.sinkRestore() })
			} else {
				both(func(w *W) { w.sinkOutage(w.now + 7200) })
			}
		case k < 92:
			id := wrsn.NodeID(rng.Intn(n))
			until := r.now + 3600*rng.Float64()
			at = fmt.Sprintf("event %d: cooldown node %d", i, id)
			both(func(w *W) { w.SetCooldown(id, until) })
		default:
			pend := r.qu.Pending()
			if len(pend) == 0 {
				continue
			}
			id := pend[rng.Intn(len(pend))].Node
			at = fmt.Sprintf("event %d: serve node %d", i, id)
			both(func(w *W) { w.qu.Remove(id) })
		}
		checkTwins(t, at, f, r)
	}
}
