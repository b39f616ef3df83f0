package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/reprolab/wrsn-csa/client"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/service"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

const day = 24 * 3600.0

// job is one entry of a workload's fixed job list.
type job struct {
	key  string // pins.json key: workload/scenario seed/campaign seed
	spec jobspec.Spec
}

// instance is a set-up workload. run executes one job and returns its
// latency, the counts it observed and any failure, a pin mismatch
// included; close releases what the set-up started.
type instance interface {
	run(ctx context.Context, j job, traced bool) (time.Duration, counts, error)
	close(ctx context.Context) error
}

// workload is a named, fixed list of jobs and the set-up that runs them.
// open is the timed set-up; acc is nil in untimed-layer (trace 0) runs.
type workload struct {
	name string
	jobs []job
	open func(ctx context.Context, jobs []job, acc *layers) (instance, error)
}

// workloads are the benchmark's workloads, in the order they are listed.
var workloads = []*workload{
	// Planning cost differs by scenario, so attack200 spans many
	// scenarios: its job times then spread smoothly and no percentile
	// sits in a gap between two scenarios' costs.
	{name: "attack200", open: openLocal, jobs: pairs("attack200", 33, 3,
		func(sc, cs uint64) jobspec.Spec {
			s := jobspec.Default(sc, 200)
			s.Kind = jobspec.KindAttack
			s.Campaign = jobspec.Campaign{Seed: cs, HorizonSec: 14 * day}
			return s
		})},
	{name: "deaths10k", open: openLocal, jobs: grid("deaths10k", []uint64{42}, []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		func(sc, cs uint64) jobspec.Spec {
			s := jobspec.Default(sc, 10_000)
			s.Scenario.Deploy.InitialFracMin, s.Scenario.Deploy.InitialFracMax = 0.12, 0.5
			s.Campaign = jobspec.Campaign{Seed: cs, HorizonSec: 2 * day, PollSec: 900}
			return s
		})},
	{name: "daemon-sweep", open: openDaemon, jobs: grid("daemon-sweep", []uint64{1, 2, 3, 4}, []uint64{1, 2, 3, 4},
		func(sc, cs uint64) jobspec.Spec {
			s := jobspec.Default(sc, 200)
			s.Campaign = jobspec.Campaign{Seed: cs, HorizonSec: 3 * day}
			return s
		})},
}

func byName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// pairs lists n jobs: scenario seeds 1..n, campaign seeds cycling
// through 1..campaigns.
func pairs(name string, n, campaigns uint64, spec func(sc, cs uint64) jobspec.Spec) []job {
	var out []job
	for sc := uint64(1); sc <= n; sc++ {
		s := spec(sc, 1+(sc-1)%campaigns)
		out = append(out, job{key: jobKey(name, s), spec: s})
	}
	return out
}

// grid lists one job per (scenario seed, campaign seed) pair.
func grid(name string, scenarios, campaigns []uint64, spec func(sc, cs uint64) jobspec.Spec) []job {
	var out []job
	for _, sc := range scenarios {
		for _, cs := range campaigns {
			s := spec(sc, cs)
			out = append(out, job{key: jobKey(name, s), spec: s})
		}
	}
	return out
}

func jobKey(workload string, s jobspec.Spec) string {
	return fmt.Sprintf("%s/%d/%d", workload, s.Scenario.Seed, s.Campaign.Seed)
}

// scenarios returns the distinct scenarios of a job list, in list order.
func scenarios(jobs []job) []trace.Scenario {
	seen := make(map[trace.Scenario]bool)
	var out []trace.Scenario
	for _, j := range jobs {
		if !seen[j.spec.Scenario] {
			seen[j.spec.Scenario] = true
			out = append(out, j.spec.Scenario)
		}
	}
	return out
}

// forkOf returns a fork function over a time-zero world.
func forkOf(nw *wrsn.Network, ch *mc.Charger) func() (*wrsn.Network, *mc.Charger, error) {
	return func() (*wrsn.Network, *mc.Charger, error) { return nw.Fork(), ch.Fork(), nil }
}

// local runs jobs in-process, back to back, through jobspec.Run.
type local struct{ acc *layers }

// openLocal is the in-process set-up: validate every spec and build each
// distinct scenario once, as a sweep does before it fans out.
func openLocal(_ context.Context, jobs []job, acc *layers) (instance, error) {
	for _, j := range jobs {
		if err := j.spec.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", j.key, err)
		}
	}
	for _, sc := range scenarios(jobs) {
		if _, _, err := sc.Build(); err != nil {
			return nil, err
		}
	}
	return &local{acc: acc}, nil
}

func (l *local) run(ctx context.Context, j job, traced bool) (time.Duration, counts, error) {
	if !traced {
		t := time.Now()
		res, err := jobspec.Run(ctx, j.spec, nil)
		if err != nil {
			return 0, unknown, err
		}
		dig, err := res.Digest()
		d := time.Since(t)
		if err != nil {
			return 0, unknown, err
		}
		got := outcomeCounts(res.Outcome)
		return d, got, checkPin(j.key, dig, got)
	}
	nw, _, err := j.spec.Scenario.Build()
	if err != nil {
		return 0, unknown, err
	}
	got, plan, err := replayLayers(ctx, j.spec, forkOf(nw, mc.New(nw.Sink(), mc.DefaultParams())), l.acc)
	if err != nil {
		return 0, unknown, err
	}
	if plan != pins[j.key].Plan {
		return 0, got, fmt.Errorf("%s: replayed plan %s, pinned %s", j.key, plan, pins[j.key].Plan)
	}
	t := time.Now()
	_, dig, tc, err := tracedJob(ctx, j.spec, l.acc)
	d := time.Since(t)
	if err != nil {
		return 0, unknown, err
	}
	got.merge(tc)
	return d, got, checkPin(j.key, dig, got)
}

func (*local) close(context.Context) error { return nil }

// Daemon-sweep shape: one closed-loop caller against two workers, a
// few-millisecond status poll and a bounded result store.
const (
	daemonWorkers    = 2
	daemonMaxResults = 16
	daemonPoll       = 2 * time.Millisecond
)

// daemon drives an in-process service over loopback HTTP. Untraced jobs
// go to plain, which runs jobspec.RunOpts; traced jobs go to traced,
// whose runner is tracedJob.
type daemon struct {
	snaps         map[trace.Scenario]*snapshot.Snapshot
	plain, traced *server
	acc           *layers
	tracedJobs    atomic.Int64
}

// openDaemon is the daemon set-up: capture a snapshot of every scenario
// and start the service and its HTTP listener (two of each when traced).
func openDaemon(_ context.Context, jobs []job, acc *layers) (inst instance, err error) {
	d := &daemon{snaps: make(map[trace.Scenario]*snapshot.Snapshot), acc: acc}
	defer func() {
		if err != nil {
			_ = d.close(context.Background())
		}
	}()
	for _, sc := range scenarios(jobs) {
		t := time.Now()
		nw, rest, err := sc.Build()
		if err != nil {
			return nil, err
		}
		if acc != nil {
			acc.one("build.ms", ms(time.Since(t)))
		}
		if d.snaps[sc], err = snapshot.Capture(sc, nw, mc.New(nw.Sink(), mc.DefaultParams()), rest); err != nil {
			return nil, err
		}
	}
	opts := service.Options{Workers: daemonWorkers, MaxResults: daemonMaxResults}
	if d.plain, err = startServer(opts); err != nil {
		return nil, err
	}
	if acc != nil {
		opts.Runner = d.runner
		if d.traced, err = startServer(opts); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// runner is the traced service's job executor.
func (d *daemon) runner(ctx context.Context, s jobspec.Spec, _ jobspec.RunOptions) (*jobspec.Result, error) {
	res, dig, got, err := tracedJob(ctx, s, d.acc)
	if err != nil {
		return nil, err
	}
	if err := checkPin(jobKey("daemon-sweep", s), dig, got); err != nil {
		d.acc.mismatch("%v", err)
	}
	return res, nil
}

func (d *daemon) run(ctx context.Context, j job, traced bool) (time.Duration, counts, error) {
	snap := d.snaps[j.spec.Scenario]
	srv, got := d.plain, unknown
	if traced {
		srv = d.traced
		d.tracedJobs.Add(1)
		fork := func() (*wrsn.Network, *mc.Charger, error) {
			nw, ch, _, err := snap.Fork()
			return nw, ch, err
		}
		rc, _, err := replayLayers(ctx, j.spec, fork, d.acc)
		if err != nil {
			return 0, unknown, err
		}
		got.merge(rc)
	}
	t := time.Now()
	spec, err := j.spec.WithSnapshot(snap)
	encode := time.Since(t)
	if err != nil {
		return 0, got, err
	}
	st, err := srv.c.SubmitWait(ctx, spec)
	if err != nil {
		return 0, got, err
	}
	if st, err = srv.c.Wait(ctx, st.ID, daemonPoll); err != nil {
		return 0, got, err
	}
	if st.State != service.StateDone {
		return 0, got, fmt.Errorf("%s: job %s ended %s: %+v", j.key, st.ID, st.State, st.Error)
	}
	env, err := srv.c.Outcome(ctx, st.ID)
	if err != nil {
		return 0, got, err
	}
	lat := time.Since(t)

	sum := sha256.Sum256(env.Outcome)
	if h := hex.EncodeToString(sum[:]); h != env.Digest || st.Digest != env.Digest {
		return lat, got, fmt.Errorf("%s: outcome hashes to %s, status says %s, envelope %s", j.key, h, st.Digest, env.Digest)
	}
	if st.Summary != nil {
		got.Deaths, got.Issued, got.Served = st.Summary.DeadTotal, st.Summary.RequestsIssued, st.Summary.RequestsServed
	}
	if traced && st.StartedAt != nil && st.FinishedAt != nil {
		d.acc.one("snapshot.encode_ms", ms(encode))
		d.acc.one("snapshot.bytes", float64(len(spec.Snapshot)))
		d.acc.one("service.queue_wait_ms", ms(st.StartedAt.Sub(st.SubmittedAt)))
		d.acc.one("service.run_ms", ms(st.FinishedAt.Sub(*st.StartedAt)))
		d.acc.one("service.http_ms", ms(lat-st.FinishedAt.Sub(st.SubmittedAt)))
		// The daemon's spec decode, replayed on the bytes this job sent.
		b, err := json.Marshal(spec)
		if err != nil {
			return lat, got, err
		}
		t := time.Now()
		_, err = jobspec.Decode(b)
		d.acc.one("jobspec.decode_us", us(time.Since(t)))
		if err != nil {
			return lat, got, err
		}
	}
	return lat, got, checkPin(j.key, env.Digest, got)
}

// close stops both servers and books the traced server's request counts
// per traced job.
func (d *daemon) close(ctx context.Context) error {
	var errs []error
	for _, s := range []*server{d.plain, d.traced} {
		if s != nil {
			errs = append(errs, s.close(ctx))
		}
	}
	if d.traced != nil {
		n := float64(d.tracedJobs.Load())
		d.acc.add("service.polls", float64(d.traced.tr.polls.Load()), n)
		d.acc.add("service.refused", float64(d.traced.tr.refused.Load()), n)
	}
	return errors.Join(errs...)
}

// server is one service behind a loopback HTTP listener, with a client.
type server struct {
	svc    *service.Service
	http   *http.Server
	served chan error
	tr     *countingTransport
	c      *client.Client
}

func startServer(opts service.Options) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	s := &server{
		svc:    service.New(opts),
		served: make(chan error, 1),
		tr:     &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * daemonWorkers}},
	}
	s.http = &http.Server{Handler: s.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.http.Serve(ln) }()
	s.c = client.New("http://" + ln.Addr().String()).WithHTTPClient(&http.Client{Transport: s.tr})
	return s, nil
}

// close stops the listener, waits for Serve to return, then drains the
// service's workers.
func (s *server) close(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.base.CloseIdleConnections()
	if serr := s.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// countingTransport counts status polls and 429 refusals.
type countingTransport struct {
	base           *http.Transport
	polls, refused atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	if r.Method == http.MethodGet && strings.Count(r.URL.Path, "/") == 3 { // GET /v1/jobs/{id}
		t.polls.Add(1)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		t.refused.Add(1)
	}
	return resp, nil
}
