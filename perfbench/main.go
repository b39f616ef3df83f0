// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from a single process, checks every job's outcome
// against the digests and counts pinned in pins.json, and prints its
// metrics by name and unit. Run it from the repository root:
//
//	bash perfbench/run.sh --workload attack200 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the last output line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run, in
// which every other job is traced. The line before it is a report: host,
// sample counts, the tail percentile used and each job's counts.
//
//	perfbench --pin perfbench/pins.json   re-take the pins from this tree
//	perfbench compare OLD NEW             compare two saved outputs
//
// See README.md for the workloads, the metrics and what should move them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"
)

// gomaxprocs is fixed so that automatic sharding (Shards: 0) and the
// service's worker count resolve the same way on every host.
const gomaxprocs = 2

// setupReps is how many times a trace-0 run sets its workload up;
// setup_s is the median.
const setupReps = 9

// hardLimit bounds a whole run; jobs still running then are canceled
// and count as failed.
const hardLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: what a reader needs to interpret and
// compare the result.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Host       host               `json:"host"`
	SetupS     []float64          `json:"setup_s,omitempty"`
	Jobs       int                `json:"jobs"`
	TracedJobs int                `json:"traced_jobs"`
	TailPct    float64            `json:"tail_pct"`
	FailedFrac float64            `json:"failed_frac"`
	Wall       map[string]float64 `json:"wall,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
	Counts     map[string]counts  `json:"counts"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed that orders the workload's job list")
	seconds := flag.Float64("seconds", 10, "measured duration")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	pinOut := flag.String("pin", "", "re-take every workload's pins into this file and exit")
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()

	if *pinOut != "" {
		if err := writePins(ctx, *pinOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := byName(*name)
	if err == nil && (*traced < 0 || *traced > 1 || *seconds <= 0) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, res, err := run(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// sample is one finished job: its latency and the process CPU time
// spent while it ran, in ms.
type sample struct {
	key     string
	ms, cpu float64
	traced  bool
	counts  counts
	err     error
}

// run sets the workload up, warms it, runs it for the given duration
// and derives the metrics. Jobs run one at a time, each followed by a
// timing of the reference kernel (ref.go). Job failures are results,
// not errors; an error means the workload could not be set up.
func run(ctx context.Context, w *workload, seed uint64, dur time.Duration, traced bool) (*report, *result, error) {
	order := slices.Clone(w.jobs)
	rand.New(rand.NewPCG(seed, 0)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	ref := newReference()
	var acc *layers
	reps := setupReps
	if traced {
		acc, reps = newLayers(), 1
	}
	var setups []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(ctx); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // no earlier garbage is collected inside the timed set-up
		t := time.Now()
		var err error
		if inst, err = w.open(ctx, order, acc); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var samples []sample
	do := func(i int) {
		j := order[i%len(order)]
		tr := traced && i%2 == 0
		c := cpuTime()
		d, got, err := inst.run(ctx, j, tr)
		samples = append(samples, sample{key: j.key, ms: ms(d), cpu: ms(cpuTime() - c), traced: tr, counts: got, err: err})
	}
	// Warm-up: one job of each kind the run times, outside the window.
	do(0)
	if traced {
		do(1)
	}
	warm := len(samples)

	// refs[k] and refs[k+1] are the reference timings just before and
	// just after the k-th timed job; loop[k] is the k-th job's whole
	// iteration, its outcome checks included.
	refs := []float64{ms(ref.time())}
	var loop []float64
	peak := newPeakSampler(liveHeap)
	alloc0 := readMetric(allocsBytes)
	start := time.Now()
	deadline := start.Add(dur)
	// The first two jobs always run, so a short traced run still times
	// a traced and an untraced job.
	for i := 0; i < 2 || time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		t := time.Now()
		do(i)
		loop = append(loop, ms(time.Since(t)))
		refs = append(refs, ms(ref.time()))
	}
	elapsed := time.Since(start)
	alloc := readMetric(allocsBytes) - alloc0
	peakLive := peak.stop()
	if err := inst.close(ctx); err != nil {
		return nil, nil, err
	}

	rep := &report{Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Trace: traced, Host: thisHost(), SetupS: setups, Counts: make(map[string]counts)}
	res := &result{Attempted: len(samples), Metrics: make(map[string]metric)}
	// Each timed job in milliseconds and in reference units.
	var plainMS, plainRef, cpuMS, cpuRef, tracedRef []float64
	loopRef := 0.0
	for i, s := range samples {
		c, ok := rep.Counts[s.key]
		if !ok {
			c = unknown
		}
		c.merge(s.counts)
		rep.Counts[s.key] = c
		if s.err != nil {
			res.Failed++
			rep.Errors = append(rep.Errors, s.err.Error())
			continue
		}
		if i < warm {
			continue
		}
		k := i - warm
		r := near(refs, k)
		loopRef += loop[k] / r
		if s.traced {
			tracedRef = append(tracedRef, s.ms/r)
			continue
		}
		plainMS = append(plainMS, s.ms)
		plainRef = append(plainRef, s.ms/r)
		cpuMS = append(cpuMS, s.cpu)
		cpuRef = append(cpuRef, s.cpu/r)
	}
	if acc != nil {
		for _, m := range acc.mismatches() {
			res.Failed++
			rep.Errors = append(rep.Errors, m)
		}
	}
	if len(rep.Errors) > 5 {
		rep.Errors = rep.Errors[:5]
	}
	res.Correct = res.Failed == 0
	rep.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	measured := len(samples) - warm
	rep.Jobs, rep.TracedJobs = measured, len(tracedRef)
	if len(plainRef) == 0 {
		res.Correct = false
		return rep, res, nil
	}
	slices.Sort(plainMS)
	slices.Sort(plainRef)
	rep.TailPct = tailPercentile(len(plainRef))
	tail := rep.TailPct / 100
	rep.Wall = map[string]float64{
		"ref_ms.p50":     median(refs),
		"job_ms.p50":     quantile(plainMS, 0.5),
		"job_ms.tail":    quantile(plainMS, tail),
		"jobs_per_s":     float64(measured) / elapsed.Seconds(),
		"cpu_ms_per_job": mean(cpuMS),
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !traced {
		put("setup_s", "s", median(setups))
		put("jobs_per_kref", "1/kref", 1000*float64(len(plainRef))/loopRef)
		put("job_ref.p50", "ref", quantile(plainRef, 0.5))
		put("job_ref.tail", "ref", quantile(plainRef, tail))
		put("cpu_ref_per_job", "ref", mean(cpuRef))
		put("alloc_mb_per_job", "MB", float64(alloc)/1e6/float64(measured))
		put("peak_heap_mb", "MB", peakLive/1e6)
		return rep, res, nil
	}
	for _, m := range layerMetrics {
		put(m.name, m.unit, acc.mean(m.name))
	}
	overhead := 0.0
	if len(tracedRef) > 0 {
		overhead = median(tracedRef) / quantile(plainRef, 0.5)
	}
	put("trace.overhead", "ratio", overhead)
	return rep, res, nil
}

// layerMetrics are the traced run's per-layer metrics, each the mean of
// its observations: per call for the _us/_ms timings of repeated calls,
// per traced job (or per replay) for counts and one-call timings.
var layerMetrics = []struct{ name, unit string }{
	{"attack.instance_ms", "ms"},
	{"attack.solve_ms", "ms"},
	{"attack.sites", "count"},
	{"charging.next_n", "count"},
	{"charging.next_us", "us"},
	{"charging.queue_len", "count"},
	{"detect.score_n", "count"},
	{"detect.score_us", "us"},
	{"world.step_n", "count"},
	{"world.step_us", "us"},
	{"wrsn.recompute_n", "count"},
	{"wrsn.recompute_us", "us"},
	{"wrsn.drain_us", "us"},
	{"wrsn.forecast_us", "us"},
	{"wrsn.deaths", "count"},
	{"build.ms", "ms"},
	{"session.n", "count"},
	{"session.spoofs", "count"},
	{"campaign.residual_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.fork_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"jobspec.decode_us", "us"},
	{"jobspec.validate_ms", "ms"},
	{"digest.sum_ms", "ms"},
	{"digest.bytes", "bytes"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.polls", "count"},
	{"service.refused", "count"},
}
