package attack

import (
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// FuzzEvaluate drives Evaluate with adversarial instance parameters and
// orders: it must never panic, and any plan it accepts must satisfy the
// documented invariants (windows, budget, monotone schedule).
func FuzzEvaluate(f *testing.F) {
	f.Add(uint8(3), 10.0, 5.0, 100.0, 1e6, false)
	f.Add(uint8(5), -3.0, 0.0, 1.0, 10.0, true)
	f.Add(uint8(1), 1e9, 1e9, 1e9, 1e-9, false)
	f.Fuzz(func(t *testing.T, n uint8, x, release, dur, budget float64, reverse bool) {
		sites := int(n%8) + 1
		in := &Instance{
			Depot:     geom.Pt(0, 0),
			SpeedMps:  1,
			MoveJPerM: 1,
			RadiateW:  1,
			BudgetJ:   budget,
		}
		for i := 0; i < sites; i++ {
			in.Sites = append(in.Sites, Site{
				Pos:    geom.Pt(x+float64(i)*3, float64(i)),
				Window: Window{R: release, D: release + dur},
				Dur:    dur / 4,
				UtilJ:  1,
			})
		}
		if err := in.Validate(); err != nil {
			return // invalid instances are allowed to be rejected
		}
		ord := make([]int, sites)
		for i := range ord {
			if reverse {
				ord[i] = sites - 1 - i
			} else {
				ord[i] = i
			}
		}
		p, err := in.Evaluate(ord, false)
		if err != nil {
			return
		}
		// Accepted plans satisfy the invariants.
		if p.EnergyJ > in.BudgetJ {
			t.Fatalf("accepted plan over budget: %v > %v", p.EnergyJ, in.BudgetJ)
		}
		prevEnd := in.Start
		for _, stop := range p.Schedule {
			if stop.Begin < stop.Arrive || stop.End < stop.Begin {
				t.Fatalf("non-monotone stop %+v", stop)
			}
			if stop.Arrive < prevEnd {
				t.Fatalf("stop arrives before previous ends: %+v", stop)
			}
			s := in.Sites[stop.Site]
			if stop.Begin < s.Window.R || stop.End > s.Window.D {
				t.Fatalf("stop outside window: %+v vs %+v", stop, s.Window)
			}
			prevEnd = stop.End
		}
	})
}

// FuzzRouteOracle cross-checks the O(1) insertion oracle against the
// ground-truth Evaluate on fuzz-shaped instances.
func FuzzRouteOracle(f *testing.F) {
	f.Add(int64(1), uint8(6))
	f.Add(int64(99), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		sites := int(n%12) + 2
		in := fuzzInstance(seed, sites)
		var route []int
		for idx := range in.Sites {
			cand := append(append([]int(nil), route...), idx)
			if _, err := in.Evaluate(cand, false); err == nil {
				route = cand
			}
			if len(route) >= sites/2 {
				break
			}
		}
		rs := newRouteState(in)
		if !rs.Recompute(route) {
			t.Fatal("oracle rejected a feasible route")
		}
		used := make(map[int]bool, len(route))
		for _, idx := range route {
			used[idx] = true
		}
		for idx := range in.Sites {
			if used[idx] {
				continue
			}
			for pos := 0; pos <= len(route); pos++ {
				_, okOracle := rs.CheckInsert(pos, idx)
				cand := insertAt(append([]int(nil), route...), pos, idx)
				_, err := in.Evaluate(cand, false)
				if okOracle != (err == nil) {
					t.Fatalf("oracle=%v truth=%v (site %d pos %d, err %v)",
						okOracle, err == nil, idx, pos, err)
				}
			}
		}
	})
}

// FuzzPackCovers checks the lazy cover packer against the full-rescan
// oracle on salted fuzz instances: both must build the same route.
func FuzzPackCovers(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(7), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkPackCovers(t, packInstance(seed, int(n%48)+3))
	})
}

// fuzzInstance derives a deterministic instance from a fuzz seed using a
// SplitMix64 walk (no rng dependency keeps the corpus stable).
func fuzzInstance(seed int64, sites int) *Instance {
	x := uint64(seed)
	next := func() float64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64(z^(z>>31)) / (1 << 63)
	}
	in := &Instance{
		Depot:     geom.Pt(500, 500),
		SpeedMps:  5,
		MoveJPerM: 50,
		RadiateW:  50,
		BudgetJ:   1e5 + next()*2e6,
	}
	for i := 0; i < sites; i++ {
		release := next() * 5e4
		in.Sites = append(in.Sites, Site{
			Pos:    geom.Pt(next()*1000, next()*1000),
			Window: Window{R: release, D: release + 1e3 + next()*4e4},
			Dur:    300 + next()*2000,
			UtilJ:  100 + next()*10000,
		})
	}
	return in
}
