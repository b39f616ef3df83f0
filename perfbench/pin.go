package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
)

// writePins runs every job of every workload once plainly, once traced
// and once through the layer replays, requires the three to agree, and
// writes the pins to path.
func writePins(ctx context.Context, path string) error {
	out := make(map[string]pin)
	for _, w := range workloads {
		for _, j := range w.jobs {
			p, err := pinJob(ctx, j)
			if err != nil {
				return fmt.Errorf("%s: %w", j.key, err)
			}
			out[j.key] = p
			fmt.Fprintf(os.Stderr, "pinned %s %s\n", j.key, p.Digest[:12])
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func pinJob(ctx context.Context, j job) (pin, error) {
	res, err := jobspec.Run(ctx, j.spec, nil)
	if err != nil {
		return pin{}, err
	}
	p := pin{Counts: outcomeCounts(res.Outcome)}
	if p.Digest, err = res.Digest(); err != nil {
		return pin{}, err
	}
	if res.Outcome.Planned != nil {
		if p.Plan, err = digest.Sum(res.Outcome.Planned); err != nil {
			return pin{}, err
		}
	}
	_, dig, traced, err := tracedJob(ctx, j.spec, newLayers())
	if err != nil {
		return pin{}, err
	}
	if dig != p.Digest || !p.Counts.agree(traced) {
		return pin{}, fmt.Errorf("traced job disagrees: digest %s, counts %+v; plain %s, %+v", dig, traced, p.Digest, p.Counts)
	}
	nw, _, err := j.spec.Scenario.Build()
	if err != nil {
		return pin{}, err
	}
	replayed, plan, err := replayLayers(ctx, j.spec, forkOf(nw, mc.New(nw.Sink(), mc.DefaultParams())), newLayers())
	if err != nil {
		return pin{}, err
	}
	if plan != p.Plan {
		return pin{}, fmt.Errorf("replayed plan %s, executed plan %s", plan, p.Plan)
	}
	p.Counts.merge(traced)
	p.Counts.merge(replayed)
	return p, nil
}

// compareMain compares two saved outputs of the benchmark, metric by
// metric. It refuses when they were measured on different hosts.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	var hosts [2]host
	var results [2]result
	for i, path := range args {
		var err error
		if hosts[i], results[i], err = readOutput(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if !hosts[0].sameMachine(hosts[1]) {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare results from different hosts:\n  %+v\n  %+v\n", hosts[0], hosts[1])
		return 3
	}
	names := make([]string, 0, len(results[1].Metrics))
	for name := range results[1].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %14s %14s %8s\n", "metric", args[0], args[1], "new/old")
	for _, name := range names {
		a, b := results[0].Metrics[name], results[1].Metrics[name]
		r := "-"
		if a.Value != 0 {
			r = fmt.Sprintf("%.3f", b.Value/a.Value)
		}
		fmt.Printf("%-24s %14.6g %14.6g %8s %s\n", name, a.Value, b.Value, r, b.Unit)
	}
	return 0
}

// readOutput parses a saved benchmark output: the report line's host
// and the last line's result.
func readOutput(path string) (host, result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return host{}, result{}, err
	}
	var h *host
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r struct{ Report *report }
		if json.Unmarshal(line, &r) == nil && r.Report != nil {
			h = &r.Report.Host
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return host{}, result{}, err
	}
	var res result
	if h == nil || json.Unmarshal(last, &res) != nil || res.Metrics == nil {
		return host{}, result{}, fmt.Errorf("%s: not a saved benchmark output", path)
	}
	return *h, res, nil
}
