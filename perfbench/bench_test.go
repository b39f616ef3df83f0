package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func workloadOrFatal(t *testing.T, name string) *workload {
	t.Helper()
	w, err := byName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The traced path must reproduce the plain path's outcome exactly: the
// decorators observe, never steer. Covered for a scenario-built attack
// job and for a snapshot-carrying legit job.
func TestDecoratorsAreTransparent(t *testing.T) {
	ctx := context.Background()
	attackJob := workloadOrFatal(t, "attack200").jobs[0]
	legitJob := workloadOrFatal(t, "daemon-sweep").jobs[0]
	snap, err := snapshot.Build(legitJob.spec.Scenario, mc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	withSnap, err := legitJob.spec.WithSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		key  string
		spec jobspec.Spec
	}{
		{"attack", attackJob.key, attackJob.spec},
		{"legit-snapshot", legitJob.key, withSnap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := jobspec.Run(ctx, tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := res.Digest()
			if err != nil {
				t.Fatal(err)
			}
			acc := newLayers()
			_, traced, got, err := tracedJob(ctx, tc.spec, acc)
			if err != nil {
				t.Fatal(err)
			}
			if traced != plain || plain != pins[tc.key].Digest {
				t.Fatalf("digests: traced %s, plain %s, pinned %s", traced, plain, pins[tc.key].Digest)
			}
			if err := checkPin(tc.key, traced, got); err != nil {
				t.Fatal(err)
			}
			if acc.mean("charging.next_n") == 0 || acc.mean("detect.score_n") == 0 {
				t.Fatalf("decorators saw no calls: %+v", acc.stats)
			}
		})
	}
}

func TestTimedSchedulerAndDetectorDelegate(t *testing.T) {
	var q charging.Queue
	for i, x := range []float64{50, 10, 30} {
		if err := q.Add(charging.Request{Node: wrsn.NodeID(i), Pos: geom.Point{X: x}, IssuedAt: float64(i), NeedJ: 1, Deadline: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	inner := charging.NJNP{}
	s := &timedScheduler{inner: inner}
	want, wok := inner.Next(&q, geom.Point{}, 0)
	got, gok := s.Next(&q, geom.Point{}, 0)
	if got != want || gok != wok || s.Name() != inner.Name() || s.calls != 1 || s.queued != 3 {
		t.Fatalf("scheduler decorator: got %+v %v %q calls %d queued %d, want %+v %v %q", got, gok, s.Name(), s.calls, s.queued, want, wok, inner.Name())
	}
	audit := detect.Audit{Sessions: []detect.SessionObs{{Node: 1, Start: 0, End: 10, RequestedJ: 5, Solicited: false}}}
	clock := &detectorClock{}
	for _, d := range detect.Suite() {
		td := timedDetector{Detector: d, clock: clock}
		if td.Score(audit) != d.Score(audit) || td.Name() != d.Name() || td.Threshold() != d.Threshold() {
			t.Fatalf("detector decorator changed %s", d.Name())
		}
	}
	if clock.calls != len(detect.Suite()) {
		t.Fatalf("detector decorator counted %d calls", clock.calls)
	}
}

func TestPinsCoverEveryJob(t *testing.T) {
	n := 0
	for _, w := range workloads {
		for _, j := range w.jobs {
			p, ok := pins[j.key]
			if !ok || p.Digest == "" {
				t.Errorf("%s: missing or partial pin %+v", j.key, p)
			}
			for _, f := range p.Counts.fields() {
				if *f < 0 {
					t.Errorf("%s: count not pinned: %+v", j.key, p.Counts)
				}
			}
			if (j.spec.Kind == jobspec.KindAttack) != (p.Plan != "") {
				t.Errorf("%s: plan pin %q for kind %s", j.key, p.Plan, j.spec.Kind)
			}
			n++
		}
	}
	if n != len(pins) {
		t.Errorf("%d jobs but %d pins", n, len(pins))
	}
}

// The reference kernel is the unit of every time metric; it must not
// allocate, or the program's heap and collector would reach it.
func TestReferenceAllocatesNothing(t *testing.T) {
	r := newReference()
	if n := testing.AllocsPerRun(10, func() { r.time() }); n != 0 {
		t.Fatalf("reference kernel allocates %v times per run", n)
	}
	if got := near([]float64{1, 9, 2, 3}, 1); got != 2 {
		t.Fatalf("near = %v, want the median of 1, 9, 2", got)
	}
	if got := near([]float64{4, 6}, 0); got != 5 {
		t.Fatalf("near at the edge = %v, want 5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{1: 50, 19: 50, 39: 50, 40: 75, 10000: 75} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// A seconds-long run of every workload, untraced and traced, must pass
// and emit every metric BENCHMARK.json declares, with its unit.
func TestSmokeRunsEmitEveryMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := byName(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "deaths10k" {
				t.Skip("deaths10k jobs take seconds each")
			}
			for _, traced := range []bool{false, true} {
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				rep, res, err := run(ctx, w, 7, time.Second, traced)
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: %+v, errors %v", traced, res, rep.Errors)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s: got %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(want))
				}
			}
		})
	}
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		p := filepath.Join(dir, name)
		rep, _ := json.Marshal(map[string]report{"report": {Host: h}})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"job_ref.p50": {Value: 2, Unit: "ref"}}})
		if err := os.WriteFile(p, append(append(rep, '\n'), res...), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := thisHost()
	other := h
	other.Commit = "other-code"
	a, b := write("a", h), write("b", other)
	if code := compareMain([]string{a, b}); code != 0 {
		t.Fatalf("same host, other commit: exit %d", code)
	}
	other.CPUModel += " (another machine)"
	c := write("c", other)
	if code := compareMain([]string{a, c}); code != 3 {
		t.Fatalf("different host: exit %d, want refusal (3)", code)
	}
}
