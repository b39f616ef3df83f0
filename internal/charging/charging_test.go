package charging

import (
	"math/rand"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func req(node wrsn.NodeID, x, issued, deadline, need float64) Request {
	return Request{Node: node, Pos: geom.Pt(x, 0), IssuedAt: issued, Deadline: deadline, NeedJ: need}
}

func TestRequestValidate(t *testing.T) {
	if err := req(1, 0, 10, 5, 1).Validate(); err == nil {
		t.Error("deadline before issue accepted")
	}
	if err := req(1, 0, 0, 1, -1).Validate(); err == nil {
		t.Error("negative need accepted")
	}
	if err := req(1, 0, 0, 1, 1).Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestQueueAddReplace(t *testing.T) {
	var q Queue
	if err := q.Add(req(1, 0, 0, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(req(1, 0, 2, 12, 7)); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 {
		t.Fatalf("re-add duplicated: len=%d", q.Len())
	}
	got, ok := q.Get(1)
	if !ok || got.NeedJ != 7 {
		t.Errorf("Get = %+v, %v; want replaced request", got, ok)
	}
}

func TestQueueRemove(t *testing.T) {
	var q Queue
	for i := 1; i <= 3; i++ {
		if err := q.Add(req(wrsn.NodeID(i), float64(i), float64(i), 100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if !q.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if q.Has(2) || q.Len() != 2 {
		t.Error("node 2 still present")
	}
	if q.Remove(2) {
		t.Error("double remove succeeded")
	}
	// The remaining entries must still be addressable (swap-delete bug
	// guard).
	if !q.Has(1) || !q.Has(3) {
		t.Error("swap-delete corrupted the index")
	}
	// Removing the last inserted element (the swap-with-self edge case).
	if !q.Remove(3) || q.Has(3) {
		t.Error("remove-last broke")
	}
	if !q.Has(1) || q.Len() != 1 {
		t.Error("remove-last corrupted remaining entry")
	}
}

func TestQueuePendingSorted(t *testing.T) {
	var q Queue
	_ = q.Add(req(3, 0, 5, 100, 1))
	_ = q.Add(req(1, 0, 2, 100, 1))
	_ = q.Add(req(2, 0, 2, 100, 1))
	p := q.Pending()
	if len(p) != 3 || p[0].Node != 1 || p[1].Node != 2 || p[2].Node != 3 {
		t.Errorf("pending order = %v", p)
	}
}

func TestQueueExpire(t *testing.T) {
	var q Queue
	_ = q.Add(req(1, 0, 0, 10, 1))
	_ = q.Add(req(2, 0, 0, 50, 1))
	dead := q.Expire(20)
	if len(dead) != 1 || dead[0].Node != 1 {
		t.Errorf("expired = %v", dead)
	}
	if q.Has(1) || !q.Has(2) {
		t.Error("expire removed the wrong entries")
	}
}

func TestFCFS(t *testing.T) {
	var q Queue
	_ = q.Add(req(2, 100, 5, 100, 1))
	_ = q.Add(req(1, 1, 3, 100, 1))
	r, ok := FCFS{}.Next(&q, geom.Pt(0, 0), 10)
	if !ok || r.Node != 1 {
		t.Errorf("FCFS picked %v", r.Node)
	}
	var empty Queue
	if _, ok2 := (FCFS{}).Next(&empty, geom.Pt(0, 0), 0); ok2 {
		t.Error("empty queue returned a request")
	}
}

func TestNJNP(t *testing.T) {
	var q Queue
	_ = q.Add(req(1, 100, 0, 100, 1))
	_ = q.Add(req(2, 10, 1, 100, 1))
	_ = q.Add(req(3, 55, 2, 100, 1))
	r, ok := NJNP{}.Next(&q, geom.Pt(50, 0), 10)
	if !ok || r.Node != 3 {
		t.Errorf("NJNP picked %v, want 3 (nearest to x=50)", r.Node)
	}
}

func TestEDF(t *testing.T) {
	var q Queue
	_ = q.Add(req(1, 0, 0, 300, 1))
	_ = q.Add(req(2, 0, 1, 100, 1))
	_ = q.Add(req(3, 0, 2, 200, 1))
	r, ok := EDF{}.Next(&q, geom.Pt(0, 0), 10)
	if !ok || r.Node != 2 {
		t.Errorf("EDF picked %v, want 2", r.Node)
	}
}

// sortedNext is the reference each scheduler's Next must match: the
// first best request in the sorted Pending() copy.
func sortedNext(q *Queue, better func(r, best Request) bool) (Request, bool) {
	p := q.Pending()
	if len(p) == 0 {
		return Request{}, false
	}
	best := p[0]
	for _, r := range p[1:] {
		if better(r, best) {
			best = r
		}
	}
	return best, true
}

// TestSchedulersMatchSortedReference draws random queues whose issue
// times, deadlines and positions collide often (and whose slice order is
// scrambled by removals) and requires FCFS, NJNP and EDF to pick what
// the sorted reference picks.
func TestSchedulersMatchSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	pick := func(n int) float64 { return float64(rnd.Intn(n)) }
	for trial := 0; trial < 2000; trial++ {
		var q Queue
		for i := 0; i < 1+rnd.Intn(12); i++ {
			issued := pick(4)
			r := Request{
				Node:     wrsn.NodeID(rnd.Intn(20)),
				Pos:      geom.Pt(pick(3), pick(3)),
				IssuedAt: issued,
				Deadline: issued + pick(3),
			}
			if err := q.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < rnd.Intn(3); i++ {
			q.Remove(wrsn.NodeID(rnd.Intn(20)))
		}
		at := geom.Pt(pick(3), pick(3))
		refs := map[string]func(r, best Request) bool{
			"FCFS": func(r, best Request) bool { return r.IssuedAt < best.IssuedAt },
			"NJNP": func(r, best Request) bool { return at.Dist2(r.Pos) < at.Dist2(best.Pos) },
			"EDF":  func(r, best Request) bool { return r.Deadline < best.Deadline },
		}
		for _, s := range []Scheduler{FCFS{}, NJNP{}, EDF{}} {
			got, gok := s.Next(&q, at, 0)
			want, wok := sortedNext(&q, refs[s.Name()])
			if got != want || gok != wok {
				t.Fatalf("trial %d %s: Next = %+v %v, sorted reference %+v %v (queue %+v)", trial, s.Name(), got, gok, want, wok, q.pending)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"FCFS", "njnp", "EDF"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestSessionUtility(t *testing.T) {
	s := Session{RequestedJ: 100, DeliveredJ: 60}
	if s.Utility() != 60 {
		t.Errorf("utility = %v", s.Utility())
	}
	s.DeliveredJ = 150 // over-delivery earns only the request
	if s.Utility() != 100 {
		t.Errorf("capped utility = %v", s.Utility())
	}
	if (Session{Start: 5, End: 9}).Duration() != 4 {
		t.Error("duration wrong")
	}
}

func TestSessionKindString(t *testing.T) {
	if SessionFocus.String() != "focus" || SessionSpoof.String() != "spoof" {
		t.Error("session kind strings wrong")
	}
	if SessionKind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestPeriodicTSP(t *testing.T) {
	var q Queue
	// Requests placed so a good tour is 1 → 2 → 3 from the charger at 0.
	_ = q.Add(req(3, 90, 0, 1000, 1))
	_ = q.Add(req(1, 10, 1, 1000, 1))
	_ = q.Add(req(2, 50, 2, 1000, 1))
	sched := &PeriodicTSP{}
	var order []wrsn.NodeID
	for {
		r, ok := sched.Next(&q, geom.Pt(0, 0), 0)
		if !ok {
			break
		}
		order = append(order, r.Node)
		q.Remove(r.Node)
	}
	want := []wrsn.NodeID{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("served %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tour order = %v, want %v", order, want)
		}
	}
}

func TestPeriodicTSPSkipsVanishedRequests(t *testing.T) {
	var q Queue
	_ = q.Add(req(1, 10, 0, 1000, 1))
	_ = q.Add(req(2, 20, 1, 1000, 1))
	sched := &PeriodicTSP{}
	r, ok := sched.Next(&q, geom.Pt(0, 0), 0)
	if !ok || r.Node != 1 {
		t.Fatalf("first pick = %v %v", r.Node, ok)
	}
	// Node 2's request expires before its tour stop comes up.
	q.Remove(1)
	q.Remove(2)
	if _, ok := sched.Next(&q, geom.Pt(0, 0), 0); ok {
		t.Error("served a vanished request")
	}
}

func TestPeriodicTSPMinBatch(t *testing.T) {
	var q Queue
	_ = q.Add(req(1, 10, 0, 1000, 1))
	sched := &PeriodicTSP{MinBatch: 3}
	if _, ok := sched.Next(&q, geom.Pt(0, 0), 0); ok {
		t.Error("served below the batch threshold")
	}
	_ = q.Add(req(2, 20, 1, 1000, 1))
	_ = q.Add(req(3, 30, 2, 1000, 1))
	if _, ok := sched.Next(&q, geom.Pt(0, 0), 0); !ok {
		t.Error("batch reached but nothing served")
	}
}

func TestByNamePeriodicTSP(t *testing.T) {
	if _, err := ByName("PeriodicTSP"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("tsp"); err != nil {
		t.Fatal(err)
	}
}
