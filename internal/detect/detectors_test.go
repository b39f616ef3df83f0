package detect

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func sess(node wrsn.NodeID, start, req, gain float64, solicited bool) SessionObs {
	return SessionObs{
		Node: node, Start: start, End: start + 100,
		RequestedJ: req, MeterGainJ: gain, Solicited: solicited,
	}
}

func TestUtilityDetector(t *testing.T) {
	d := UtilityDetector{}
	// Full delivery → zero shortfall.
	a := Audit{Sessions: []SessionObs{sess(1, 0, 100, 100, true)}}
	if s := d.Score(a); s != 0 {
		t.Errorf("full-delivery score = %v", s)
	}
	// Half delivered.
	a = Audit{Sessions: []SessionObs{sess(1, 0, 100, 50, true)}}
	if s := d.Score(a); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("half-delivery score = %v", s)
	}
	// Ignored requests count against the charger.
	a.Unserved = []RequestObs{{Node: 2, NeedJ: 100}}
	if s := d.Score(a); math.Abs(s-0.75) > 1e-12 {
		t.Errorf("with-unserved score = %v", s)
	}
	// No demand at all: innocent unless deaths exist.
	if s := d.Score(Audit{}); s != 0 {
		t.Errorf("empty audit score = %v", s)
	}
	if s := d.Score(Audit{Deaths: []DeathObs{{Node: 1}}}); s != 1 {
		t.Errorf("deaths-without-service score = %v", s)
	}
	// Over-delivery clamps at zero.
	a = Audit{Sessions: []SessionObs{sess(1, 0, 100, 150, true)}}
	if s := d.Score(a); s != 0 {
		t.Errorf("over-delivery score = %v", s)
	}
}

func TestGainDetector(t *testing.T) {
	d := GainDetector{}
	a := Audit{Sessions: []SessionObs{
		sess(1, 0, 100, 0, true),
		sess(1, 200, 100, 0, true),
		sess(1, 400, 100, 90, true), // run broken
		sess(1, 600, 100, 0, true),
		sess(2, 100, 100, 0, true), // different node: separate run
	}}
	if s := d.Score(a); s != 2 {
		t.Errorf("longest run = %v, want 2", s)
	}
	// Sessions arrive unsorted; the detector must order them.
	a = Audit{Sessions: []SessionObs{
		sess(1, 400, 100, 0, true),
		sess(1, 0, 100, 0, true),
		sess(1, 200, 100, 0, true),
	}}
	if s := d.Score(a); s != 3 {
		t.Errorf("unsorted run = %v, want 3", s)
	}
	if Flagged(d, a) != true {
		t.Error("run of 3 not flagged at default trigger")
	}
}

// referenceGainScore is GainDetector.Score as it was first written: a
// map of per-node buckets, each sorted by start time. Score must agree
// with it everywhere, ties included.
func referenceGainScore(d GainDetector, a Audit) float64 {
	zero := d.ZeroGainJ
	if zero <= 0 {
		zero = 1
	}
	byNode := make(map[wrsn.NodeID][]SessionObs)
	for _, s := range a.Sessions {
		byNode[s.Node] = append(byNode[s.Node], s)
	}
	longest := 0
	for _, ss := range byNode {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		run := 0
		for _, s := range ss {
			if s.MeterGainJ <= zero {
				run++
				if run > longest {
					longest = run
				}
			} else {
				run = 0
			}
		}
	}
	return float64(longest)
}

// TestGainDetectorMatchesReference checks the map-free Score against the
// per-node-bucket reference on hand-built audits (interleaved nodes,
// equal start times, runs past the 12-element insertion-sort cutoff
// where the start-time sort stops being stable) and on random audits
// drawn from a few nodes and start times so ties are common.
func TestGainDetectorMatchesReference(t *testing.T) {
	tied := make([]SessionObs, 0, 40)
	for i := 0; i < 40; i++ {
		gain := 0.0
		if i%3 == 0 {
			gain = 90
		}
		tied = append(tied, sess(wrsn.NodeID(i%2), float64(100*(i%4)), 100, gain, true))
	}
	cases := []struct {
		name string
		ss   []SessionObs
	}{
		{"empty", nil},
		{"single", []SessionObs{sess(3, 0, 100, 0, true)}},
		{"interleaved", []SessionObs{
			sess(2, 300, 100, 0, true), sess(1, 0, 100, 0, true),
			sess(2, 100, 100, 0, true), sess(1, 200, 100, 90, true),
			sess(2, 200, 100, 0, true), sess(1, 100, 100, 0, true),
		}},
		{"equal-starts", []SessionObs{
			sess(5, 100, 100, 0, true), sess(5, 100, 100, 90, true),
			sess(5, 100, 100, 0, true), sess(4, 100, 100, 0, true),
		}},
		{"tied-past-cutoff", tied},
	}
	for _, c := range cases {
		for _, d := range []GainDetector{{}, {ZeroGainJ: 50}} {
			if got, want := d.Score(Audit{Sessions: c.ss}), referenceGainScore(d, Audit{Sessions: c.ss}); got != want {
				t.Errorf("%s (zero %v): Score = %v, reference %v", c.name, d.ZeroGainJ, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		ss := make([]SessionObs, rng.Intn(60))
		for i := range ss {
			ss[i] = sess(wrsn.NodeID(rng.Intn(4)), float64(100*rng.Intn(5)), 100, float64(rng.Intn(3))*40, true)
		}
		in := append([]SessionObs(nil), ss...)
		d := GainDetector{}
		if got, want := d.Score(Audit{Sessions: ss}), referenceGainScore(d, Audit{Sessions: in}); got != want {
			t.Fatalf("trial %d: Score = %v, reference %v on %v", trial, got, want, in)
		}
		for i := range ss {
			if ss[i] != in[i] {
				t.Fatalf("trial %d: Score reordered its input", trial)
			}
		}
	}
}

func TestDeathDetector(t *testing.T) {
	d := DeathDetector{}
	a := Audit{
		Sessions: []SessionObs{sess(1, 0, 100, 90, true), sess(2, 0, 100, 90, true)},
		Deaths:   []DeathObs{{Node: 1, Time: 120, Reachable: true}},
	}
	// Node 1 died 20 s after its session end (100): implicated.
	if s := d.Score(a); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("score = %v, want 0.5", s)
	}
	// A death long after the window is not implicated.
	a.Deaths[0].Time = 1e9
	if s := d.Score(a); s != 0 {
		t.Errorf("stale death score = %v", s)
	}
	// No sessions → scheduler's fault, not the charger's.
	if s := d.Score(Audit{Deaths: []DeathObs{{Node: 1}}}); s != 0 {
		t.Errorf("no-session score = %v", s)
	}
}

func TestUnsolicitedDetector(t *testing.T) {
	d := UnsolicitedDetector{}
	a := Audit{Sessions: []SessionObs{
		sess(1, 0, 100, 90, true),
		sess(2, 0, 100, 90, false),
		sess(3, 0, 100, 90, false),
		sess(4, 0, 100, 90, true),
	}}
	if s := d.Score(a); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("score = %v, want 0.5", s)
	}
	if s := d.Score(Audit{}); s != 0 {
		t.Errorf("empty score = %v", s)
	}
}

func TestStarvationDetector(t *testing.T) {
	d := StarvationDetector{}
	a := Audit{
		Sessions: []SessionObs{sess(9, 0, 100, 90, true)},
		Deaths: []DeathObs{
			{Node: 1, Time: 100000, Reachable: true},  // starved (pending below)
			{Node: 2, Time: 100000, Reachable: false}, // partitioned: excused
			{Node: 3, Time: 100000, Reachable: true},  // no pending: natural
			{Node: 4, Time: 100000, Reachable: true},  // pending too late to react
		},
		Unserved: []RequestObs{
			{Node: 1, IssuedAt: 0, NeedJ: 100},
			{Node: 2, IssuedAt: 0, NeedJ: 100},
			{Node: 4, IssuedAt: 99950, NeedJ: 100}, // 50 s before death
		},
	}
	if s := d.Score(a); math.Abs(s-0.25) > 1e-12 {
		t.Errorf("score = %v, want 0.25 (1 starved of 4 deaths)", s)
	}
	// No sessions: the charger served nobody; UtilityDetector owns that.
	if s := d.Score(Audit{Deaths: a.Deaths, Unserved: a.Unserved}); s != 0 {
		t.Errorf("no-session score = %v", s)
	}
}

func TestSuiteAndJudge(t *testing.T) {
	suite := Suite()
	if len(suite) != 5 {
		t.Fatalf("suite size = %d", len(suite))
	}
	clean := Audit{Sessions: []SessionObs{sess(1, 0, 100, 95, true)}}
	verdicts := Judge(clean, suite)
	if len(verdicts) != len(suite) {
		t.Fatalf("verdict count = %d", len(verdicts))
	}
	if AnyFlagged(verdicts) {
		t.Errorf("clean audit flagged: %v", verdicts)
	}
	dirty := Audit{Sessions: []SessionObs{
		sess(1, 0, 100, 0, true), sess(1, 200, 100, 0, true), sess(1, 400, 100, 0, true),
	}}
	if !AnyFlagged(Judge(dirty, suite)) {
		t.Error("three consecutive zero-gains not flagged")
	}
	// Verdict strings are informative.
	v := Judge(dirty, suite)
	found := false
	for _, x := range v {
		if x.Flagged && strings.Contains(x.String(), "FLAGGED") {
			found = true
		}
	}
	if !found {
		t.Error("flagged verdict string lacks FLAGGED")
	}
}

func TestCustomThresholds(t *testing.T) {
	if got := (UtilityDetector{MaxShortfall: 0.2}).Threshold(); got != 0.2 {
		t.Errorf("custom threshold = %v", got)
	}
	if got := (GainDetector{Trigger: 5}).Threshold(); got != 5 {
		t.Errorf("custom trigger = %v", got)
	}
	if got := (DeathDetector{MaxRatio: 0.5}).Threshold(); got != 0.5 {
		t.Errorf("custom ratio = %v", got)
	}
	if got := (StarvationDetector{MaxRatio: 0.1}).Threshold(); got != 0.1 {
		t.Errorf("custom starvation ratio = %v", got)
	}
}
