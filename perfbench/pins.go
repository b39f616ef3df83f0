package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/campaign"
)

// counts are the deterministic per-job counts. A field of -1 was not
// observed by the path that produced it and is not checked.
type counts struct {
	Deaths     int `json:"deaths"`
	Issued     int `json:"requests_issued"`
	Served     int `json:"requests_served"`
	Sessions   int `json:"sessions"`
	NextCalls  int `json:"next_calls"`
	WorldSteps int `json:"world_steps"`
	Sites      int `json:"sites"`
}

// unknown is a counts with nothing observed.
var unknown = counts{-1, -1, -1, -1, -1, -1, -1}

func (c *counts) fields() []*int {
	return []*int{&c.Deaths, &c.Issued, &c.Served, &c.Sessions, &c.NextCalls, &c.WorldSteps, &c.Sites}
}

// merge fills the fields of c that o observed.
func (c *counts) merge(o counts) {
	of := o.fields()
	for i, f := range c.fields() {
		if *of[i] >= 0 {
			*f = *of[i]
		}
	}
}

// agree reports whether c and o are equal on every field both observed.
func (c counts) agree(o counts) bool {
	of := o.fields()
	for i, f := range c.fields() {
		if *f >= 0 && *of[i] >= 0 && *f != *of[i] {
			return false
		}
	}
	return true
}

// outcomeCounts reads the counts an outcome carries.
func outcomeCounts(o *campaign.Outcome) counts {
	c := unknown
	c.Deaths, c.Issued, c.Served, c.Sessions = o.DeadTotal, o.RequestsIssued, o.RequestsServed, len(o.Sessions)
	return c
}

// pin is one job's expected outcome, taken from a reference tree: the
// outcome digest, the executed plan's digest (attack jobs) and every
// deterministic count. A job that disagrees has changed; it is counted
// failed, never timed as a speed-up.
type pin struct {
	Digest string `json:"digest"`
	Plan   string `json:"plan,omitempty"`
	Counts counts `json:"counts"`
}

//go:embed pins.json
var pinsJSON []byte

// pins maps a job key (workload/scenario seed/campaign seed) to its pin.
var pins = func() map[string]pin {
	var m map[string]pin
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
	return m
}()

// checkPin compares a job's digest (skipped when empty) and observed
// counts with its pin.
func checkPin(key, digest string, got counts) error {
	want, ok := pins[key]
	if !ok {
		return fmt.Errorf("%s: no pin", key)
	}
	if digest != "" && digest != want.Digest {
		return fmt.Errorf("%s: digest %s, pinned %s", key, digest, want.Digest)
	}
	if !want.Counts.agree(got) {
		return fmt.Errorf("%s: counts %+v, pinned %+v", key, got, want.Counts)
	}
	return nil
}
