package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Per-layer tracing. Every span is taken from outside the program,
// around a call into a layer's public function: the traced job replays
// jobspec.RunOpts call by call with a timing decorator on the scheduler
// and on each detector, and the world, routing/energy and planning
// layers are replayed on their own forks of the job's time-zero world.
// Decorators only observe, so a traced job's digest must equal the
// untraced one's; the pins enforce it.

// layerStat is a sum over observations; its metric is sum/n.
type layerStat struct{ sum, n float64 }

// layers accumulates per-layer observations across traced jobs. It is
// safe for concurrent use: the daemon's workers record into it while
// the caller does.
type layers struct {
	mu    sync.Mutex
	stats map[string]*layerStat
	bad   []string // pin mismatches found by the traced daemon runner
}

func newLayers() *layers { return &layers{stats: make(map[string]*layerStat)} }

// add records n observations summing to sum under name.
func (l *layers) add(name string, sum, n float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats[name]
	if s == nil {
		s = &layerStat{}
		l.stats[name] = s
	}
	s.sum += sum
	s.n += n
}

// one records a single observation.
func (l *layers) one(name string, v float64) { l.add(name, v, 1) }

// mean returns the metric of name: its sum over its observations, or 0
// when the layer never ran.
func (l *layers) mean(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return s.sum / s.n
}

func (l *layers) mismatch(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bad = append(l.bad, fmt.Sprintf(format, args...))
}

func (l *layers) mismatches() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.bad...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timedScheduler decorates a charging.Scheduler: it counts Next calls,
// times them and sums the queue length each call saw. One instance
// serves one campaign, whose engine is single-threaded.
type timedScheduler struct {
	inner  charging.Scheduler
	calls  int
	busy   time.Duration
	queued int
}

func (s *timedScheduler) Next(q *charging.Queue, pos geom.Point, now float64) (charging.Request, bool) {
	s.calls++
	s.queued += q.Len()
	t := time.Now()
	r, ok := s.inner.Next(q, pos, now)
	s.busy += time.Since(t)
	return r, ok
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

// detectorClock is shared by the timed detectors of one campaign.
type detectorClock struct {
	calls int
	busy  time.Duration
}

// timedDetector decorates a detect.Detector, timing Score.
type timedDetector struct {
	detect.Detector
	clock *detectorClock
}

func (d timedDetector) Score(a detect.Audit) float64 {
	t := time.Now()
	s := d.Detector.Score(a)
	d.clock.busy += time.Since(t)
	d.clock.calls++
	return s
}

// tracedJob is jobspec.RunOpts for template and scenario specs, call by
// call, with every layer call it can see timed and the scheduler and
// detectors decorated. It records into acc and returns the result, its
// digest and the counts it observed.
func tracedJob(ctx context.Context, s jobspec.Spec, acc *layers) (*jobspec.Result, string, counts, error) {
	start := time.Now()
	var inside time.Duration
	timed := func(name string, scale func(time.Duration) float64, fn func() error) error {
		t := time.Now()
		err := fn()
		d := time.Since(t)
		inside += d
		acc.one(name, scale(d))
		return err
	}
	if err := timed("jobspec.validate_ms", ms, s.Validate); err != nil {
		return nil, "", unknown, err
	}
	var nw *wrsn.Network
	var ch *mc.Charger
	if len(s.Snapshot) > 0 {
		var snap *snapshot.Snapshot
		err := timed("snapshot.decode_ms", ms, func() (err error) {
			snap, err = snapshot.Decode(s.Snapshot)
			return err
		})
		if err != nil {
			return nil, "", unknown, err
		}
		if err := timed("snapshot.fork_ms", ms, func() (err error) {
			nw, ch, _, err = snap.Fork()
			return err
		}); err != nil {
			return nil, "", unknown, err
		}
		if ch == nil {
			ch = mc.New(nw.Sink(), mc.DefaultParams())
		}
	} else {
		if err := timed("build.ms", ms, func() (err error) {
			nw, _, err = s.Scenario.Build()
			return err
		}); err != nil {
			return nil, "", unknown, err
		}
		ch = mc.New(nw.Sink(), mc.DefaultParams())
	}
	rec := obs.NewRecorder()
	cfg, err := s.Config(rec, nw.Len())
	if err != nil {
		return nil, "", unknown, err
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = charging.NJNP{}
	}
	sched := &timedScheduler{inner: cfg.Scheduler}
	cfg.Scheduler = sched
	if cfg.Detectors == nil {
		cfg.Detectors = detect.Suite()
	}
	clock := &detectorClock{}
	dets := make([]detect.Detector, len(cfg.Detectors))
	for i, d := range cfg.Detectors {
		dets[i] = timedDetector{Detector: d, clock: clock}
	}
	cfg.Detectors = dets
	ch.Instrument(rec)

	var o *campaign.Outcome
	switch s.Kind {
	case jobspec.KindAttack:
		o, err = campaign.RunAttack(ctx, nw, ch, cfg)
	case jobspec.KindLegit:
		o, err = campaign.RunLegit(ctx, nw, ch, cfg)
	default:
		return nil, "", unknown, fmt.Errorf("traced job: kind %q is not benchmarked", s.Kind)
	}
	if err != nil {
		return nil, "", unknown, err
	}
	res := &jobspec.Result{Outcome: o}
	var dig string
	if err := timed("digest.sum_ms", ms, func() (err error) {
		dig, err = res.Digest()
		return err
	}); err != nil {
		return nil, "", unknown, err
	}
	inside += sched.busy + clock.busy
	acc.one("campaign.residual_ms", ms(time.Since(start)-inside))
	acc.one("charging.next_n", float64(sched.calls))
	acc.add("charging.next_us", us(sched.busy), float64(sched.calls))
	acc.add("charging.queue_len", float64(sched.queued), float64(sched.calls))
	acc.one("detect.score_n", float64(clock.calls))
	acc.add("detect.score_us", us(clock.busy), float64(clock.calls))
	spoofs := rec.Counter("campaign.session.spoof")
	acc.one("session.n", rec.Counter("campaign.session.focus")+spoofs)
	acc.one("session.spoofs", spoofs)

	// Off the job's span: the size of what the digest covered.
	if b, err := digest.Canonical(o); err == nil {
		acc.one("digest.bytes", float64(len(b)))
	}
	got := outcomeCounts(o)
	got.NextCalls = sched.calls
	return res, dig, got, nil
}

// replayLayers replays the world, routing/energy and (for attack specs)
// planning layers on forks of a job's time-zero world, timing each
// layer's public calls; fork must return a fresh copy of that world on
// every call. It returns the replayed counts and the digest of the
// replayed plan ("" for legit specs), which must equal the plan the job
// itself executed.
func replayLayers(ctx context.Context, s jobspec.Spec, fork func() (*wrsn.Network, *mc.Charger, error), acc *layers) (counts, string, error) {
	horizon, poll, frac := s.Campaign.HorizonSec, s.Campaign.PollSec, s.Campaign.RequestFrac
	if horizon <= 0 {
		horizon = attack.DefaultHorizonSec
	}
	if poll <= 0 {
		poll = 900
	}
	if frac <= 0 || frac >= 1 {
		frac = wrsn.DefaultRequestFraction
	}
	got := unknown

	// World: the engine's own handler timing around every world.step.
	nw, _, err := fork()
	if err != nil {
		return got, "", err
	}
	rec := obs.NewRecorder()
	w := world.New(ctx, nw, ledger.New(), world.Params{PollSec: poll, RequestFrac: frac, Shards: s.Campaign.Shards}, nil)
	w.Engine().Instrument(rec)
	w.AdvanceTo(horizon)
	steps := rec.Histogram("sim.handler_sec.world.step")
	acc.one("world.step_n", float64(steps.N()))
	acc.add("world.step_us", steps.Mean()*float64(steps.N())*1e6, float64(steps.N()))
	got.WorldSteps = steps.N()

	// Routing and energy: the world step's wrsn calls, each timed.
	nw, _, err = fork()
	if err != nil {
		return got, "", err
	}
	var forecast, drain, recompute time.Duration
	var stepsN, recomputes, deaths int
	for now := 0.0; now < horizon && ctx.Err() == nil; stepsN++ {
		step := min(horizon, now+poll)
		t := time.Now()
		next, _ := nw.NextDepletion(now)
		forecast += time.Since(t)
		if next > now && next < step {
			step = next
		}
		t = time.Now()
		died := nw.AdvanceEnergy(step - now)
		drain += time.Since(t)
		now = step
		if len(died) > 0 || nw.Policy() == wrsn.PolicyEnergyAware {
			deaths += len(died)
			t = time.Now()
			nw.Recompute()
			recompute += time.Since(t)
			recomputes++
		}
	}
	acc.one("wrsn.recompute_n", float64(recomputes))
	acc.add("wrsn.recompute_us", us(recompute), float64(recomputes))
	acc.add("wrsn.forecast_us", us(forecast), float64(stepsN))
	acc.add("wrsn.drain_us", us(drain), float64(stepsN))
	acc.one("wrsn.deaths", float64(deaths))

	// Planning: the attack bootstrap's two calls on the time-zero world.
	if s.Kind != jobspec.KindAttack {
		got.Sites = 0
		return got, "", nil
	}
	nw, ch, err := fork()
	if err != nil {
		return got, "", err
	}
	t := time.Now()
	in, err := attack.BuildInstance(nw, ch, attack.BuilderConfig{
		RequestFrac: s.Campaign.RequestFrac,
		CooldownSec: s.Campaign.CooldownSec,
		HorizonSec:  s.Campaign.HorizonSec,
		MaxCovers:   s.Campaign.MaxCovers,
		BudgetJ:     s.Campaign.InstanceBudgetJ,
	})
	acc.one("attack.instance_ms", ms(time.Since(t)))
	if err != nil {
		return got, "", err
	}
	t = time.Now()
	plan, err := attack.SolveCSA(in)
	acc.one("attack.solve_ms", ms(time.Since(t)))
	if err != nil {
		return got, "", err
	}
	acc.one("attack.sites", float64(len(in.Sites)))
	got.Sites = len(in.Sites)
	pd, err := digest.Sum(plan)
	return got, pd, err
}
