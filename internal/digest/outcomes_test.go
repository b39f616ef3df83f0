package digest_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"unsafe"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// requireReference holds the streaming encoder to the reference on one
// real value, and Sum to the digest of those bytes.
func requireReference(t *testing.T, v any) {
	t.Helper()
	want, err := digest.ReferenceCanonical(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := digest.Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical form (%d bytes) differs from the reference (%d bytes)", len(got), len(want))
	}
	sum, err := digest.Sum(v)
	if err != nil {
		t.Fatal(err)
	}
	if sum != digest.SumCanonical(want) {
		t.Fatal("Sum differs from the digest of the reference bytes")
	}
}

// TestRealOutcomesMatchReference runs one job of each kind, a faulted
// one, and captures a live (version-2) checkpoint, and checks each
// against the reference canonicalization.
func TestRealOutcomesMatchReference(t *testing.T) {
	spec := func(kind string) jobspec.Spec {
		s := jobspec.Default(5, 120)
		s.Kind = kind
		s.Campaign.HorizonSec = 10 * 86400
		return s
	}
	legit, attack, fleet, faulted := spec(jobspec.KindLegit), spec(jobspec.KindAttack), spec(jobspec.KindFleet), spec(jobspec.KindLegit)
	fleet.Chargers = 2
	faulted.Faults = &faults.Spec{Seed: 5, HorizonSec: 10 * 86400, NodeFailures: 3, RequestLossProb: 0.2}

	var live *snapshot.Snapshot
	opts := jobspec.RunOptions{Checkpoint: &campaign.CheckpointPlan{
		Sink: func(s *snapshot.Snapshot) error { live = s; return nil },
	}}
	for name, s := range map[string]jobspec.Spec{"legit": legit, "attack": attack, "fleet": fleet, "faults": faulted} {
		t.Run(name, func(t *testing.T) {
			var o jobspec.RunOptions
			if name == "attack" {
				o = opts
			}
			res, err := jobspec.RunOpts(context.Background(), s, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fleet != nil {
				requireReference(t, res.Fleet)
			} else {
				requireReference(t, res.Outcome)
			}
		})
	}

	t.Run("live snapshot", func(t *testing.T) {
		if live == nil || !live.Live() {
			t.Fatal("no live checkpoint captured")
		}
		// Snapshot.Digest covers the unexported wire struct; reach it the
		// same way the digest does.
		w := reflect.ValueOf(live).Elem().FieldByName("w")
		wire := reflect.NewAt(w.Type(), unsafe.Pointer(w.UnsafeAddr())).Interface()
		requireReference(t, wire)
		want, err := digest.Sum(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := live.Digest(); err != nil || got != want {
			t.Fatalf("snapshot digest %s (%v), want %s", got, err, want)
		}
	})
}
