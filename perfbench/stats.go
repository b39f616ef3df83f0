package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs must be sorted and non-empty.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder is the set of percentiles job_ref.tail may report. A fixed
// ladder keeps the reported percentile the same from run to run of one
// workload even though the sample count varies a little. It stops at
// p75: on a shared 2-vCPU host the slowest tenth of jobs is set by host
// stalls. Over ten runs each, daemon-sweep's p99 ranged 21-59 ms while
// its p50 stayed within 11-14 ms, and attack200's p90 ranged 69-150 ms
// while its p50 stayed within 57-73 ms.
var tailLadder = []float64{50, 75}

// tailPercentile is the highest ladder percentile with at least ten of
// n samples beyond it; the median when n is below twenty.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1-p/100) ≥ 10, robust to rounding
			best = p
		}
	}
	return best
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics the run reads.
const (
	liveHeap    = "/gc/heap/live:bytes"
	allocsBytes = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakSampler samples a runtime metric on a short period and keeps the
// largest value of each one-second window. The live heap changes only
// when a GC cycle ends, and which phase of a job a cycle lands in is
// chance, so the largest value of a whole run is an outlier of that
// chance; the median of the windows' largest values is the peak a run
// typically reaches.
type peakSampler struct {
	done chan struct{}
	out  chan float64
}

const (
	peakPeriod = 5 * time.Millisecond
	peakWindow = time.Second
)

func newPeakSampler(name string) *peakSampler {
	p := &peakSampler{done: make(chan struct{}), out: make(chan float64)}
	go func() {
		t := time.NewTicker(peakPeriod)
		defer t.Stop()
		var maxima []float64
		var cur uint64
		end := time.Now().Add(peakWindow)
		for {
			select {
			case now := <-t.C:
				cur = max(cur, readMetric(name))
				if now.After(end) {
					maxima, cur, end = append(maxima, float64(cur)), 0, now.Add(peakWindow)
				}
			case <-p.done:
				if len(maxima) == 0 { // a run shorter than one window
					maxima = append(maxima, float64(max(cur, readMetric(name))))
				}
				p.out <- median(maxima)
				return
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the median of the window maxima.
func (p *peakSampler) stop() float64 {
	close(p.done)
	return <-p.out
}

// host identifies the machine a result was measured on. Results from
// different hosts are not comparable; Commit says which code ran.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two results come from the same host
// setup, whatever code they ran.
func (h host) sameMachine(o host) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

func thisHost() host {
	return host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit("."),
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code that ran: the VCS revision stamped into the
// binary when it was built in a git checkout, else a hash of the Go
// sources under root.
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(p) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
