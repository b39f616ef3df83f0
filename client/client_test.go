package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/client"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/service"
)

// quickSpec builds a fast-but-real campaign: the seed selects the
// scenario, and the index rotates through job kinds and solvers so the
// determinism sweep covers attack, legit and fleet paths.
func quickSpec(i int) jobspec.Spec {
	seed := uint64(1000 + i%25) // 25 distinct specs; duplicates must collide on digest
	s := jobspec.Default(seed, 60)
	s.Campaign.HorizonSec = 2 * 86400
	switch i % 25 % 3 {
	case 0:
		s.Kind = jobspec.KindAttack
		s.Campaign.Solver = "CSA"
	case 1:
		s.Kind = jobspec.KindLegit
	case 2:
		s.Kind = jobspec.KindFleet
		s.Chargers = 2
	}
	return s
}

// reference runs the in-process library path for each distinct spec and
// returns digest + canonical outcome bytes keyed by spec index mod 25.
func reference(t *testing.T, n int) (map[int]string, map[int][]byte) {
	t.Helper()
	digests := make(map[int]string)
	bodies := make(map[int][]byte)
	for i := 0; i < n && i < 25; i++ {
		res, err := jobspec.Run(context.Background(), quickSpec(i), obs.Nop())
		if err != nil {
			t.Fatalf("library path spec %d: %v", i, err)
		}
		dig, err := res.Digest()
		if err != nil {
			t.Fatal(err)
		}
		body, err := res.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = dig
		bodies[i] = body
	}
	return digests, bodies
}

// TestHTTPDeterminismMatchesLibrary is the PR's correctness fence: ≥100
// jobs submitted concurrently over real HTTP must produce Outcome
// digests (and canonical bytes) identical to the in-process library
// path, regardless of worker count or scheduling order.
func TestHTTPDeterminismMatchesLibrary(t *testing.T) {
	const jobs = 100
	wantDig, wantBody := reference(t, jobs)

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			svc := service.New(service.Options{QueueDepth: 24, Workers: workers, RetryAfter: 50 * time.Millisecond})
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if err := svc.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()

			c := client.New(srv.URL)
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			defer cancel()

			ids := make([]string, jobs)
			var wg sync.WaitGroup
			errs := make(chan error, jobs)
			for i := 0; i < jobs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// SubmitWait rides the 429 backpressure loop; the
					// shallow queue guarantees it actually triggers.
					st, err := c.SubmitWait(ctx, quickSpec(i))
					if err != nil {
						errs <- fmt.Errorf("job %d: submit: %w", i, err)
						return
					}
					ids[i] = st.ID
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			for i, id := range ids {
				st, err := c.Wait(ctx, id, 20*time.Millisecond)
				if err != nil {
					t.Fatalf("job %d: wait: %v", i, err)
				}
				if st.State != service.StateDone {
					t.Fatalf("job %d: state %s, error %+v", i, st.State, st.Error)
				}
				ref := i % 25
				if st.Digest != wantDig[ref] {
					t.Errorf("job %d: HTTP digest %s != library digest %s", i, st.Digest, wantDig[ref])
				}
				env, err := c.Outcome(ctx, id)
				if err != nil {
					t.Fatalf("job %d: outcome: %v", i, err)
				}
				if env.Digest != wantDig[ref] {
					t.Errorf("job %d: envelope digest mismatch", i)
				}
				if !bytes.Equal(env.Outcome, wantBody[ref]) {
					t.Errorf("job %d: canonical outcome bytes differ from library path", i)
				}
			}
		})
	}
}

// TestClientBackpressureAndErrors covers the client-visible error
// surfaces: 429 → *BusyError with the daemon's Retry-After, 404 →
// *APIError, invalid spec → *APIError(400).
func TestClientBackpressureAndErrors(t *testing.T) {
	gate := make(chan struct{})
	block := func(ctx context.Context, _ jobspec.Spec, _ jobspec.RunOptions) (*jobspec.Result, error) {
		select {
		case <-gate:
			return nil, errors.New("unused")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	svc := service.New(service.Options{QueueDepth: 1, Workers: 1, RetryAfter: 3 * time.Second, Runner: block})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	c := client.New(srv.URL)
	ctx := context.Background()

	// Fill the worker and the 1-deep queue; submit until the full
	// queue pushes back (the worker may dequeue the first job at any
	// point, so the third or fourth submit is the one that must bounce).
	var busy *client.BusyError
	var err error
	for i := 0; i < 4; i++ {
		_, err = c.Submit(ctx, quickSpec(0))
		if err != nil {
			break
		}
	}
	if !errors.As(err, &busy) {
		t.Fatalf("overfull submit returned %v, want *BusyError", err)
	}
	if busy.RetryAfter != 3*time.Second {
		t.Errorf("Retry-After %s did not round-trip the daemon's 3s hint", busy.RetryAfter)
	}

	var apiErr *client.APIError
	if _, err := c.Job(ctx, "no-such-job"); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Errorf("missing job returned %v, want 404 *APIError", err)
	}

	bad := quickSpec(0)
	bad.Campaign.Solver = "definitely-not-a-solver"
	if _, err := c.Submit(ctx, bad); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Errorf("invalid spec returned %v, want 400 *APIError", err)
	}
	lossy := quickSpec(0)
	lossy.Faults = &faults.Spec{RequestLossProb: 1.5}
	if _, err := c.Submit(ctx, lossy); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 ||
		!strings.Contains(apiErr.Error(), "RequestLossProb") {
		t.Errorf("loss probability 1.5 returned %v, want 400 *APIError naming the field", err)
	}

	if h, err := c.Health(ctx); err != nil || h.Workers != 1 {
		t.Errorf("health = %+v, %v", h, err)
	}
}

// TestClientStream consumes the NDJSON stream end to end: frames until
// the terminal one, which must carry the digest of a done job.
func TestClientStream(t *testing.T) {
	svc := service.New(service.Options{QueueDepth: 4, Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	c := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, quickSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	var last client.StreamFrame
	err = c.Stream(ctx, st.ID, 20*time.Millisecond, func(f client.StreamFrame) error {
		frames++
		last = f
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if frames == 0 || !last.Last {
		t.Fatalf("stream ended after %d frames, last-marker %v", frames, last.Last)
	}
	if last.Job.State != service.StateDone || last.Job.Digest == "" {
		t.Errorf("terminal frame job = %s digest %q, want done with digest", last.Job.State, last.Job.Digest)
	}
}
