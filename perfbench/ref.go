package main

import "time"

// The reference kernel is the benchmark's unit of time. On the shared
// host this benchmark is tuned on, the same binary's job times move by up
// to 1.75× within seconds as the host's other tenants come and go.
// Timed next to each job, a fixed piece of work that slows down the way
// the jobs do cancels that drift: a job's time divided by the kernel's
// time at that moment is the same number in a fast and in a slow host
// period. Of six kernels tried (a pointer chase over 1 MB and over 32 MB,
// floating-point arithmetic, sorting, map lookups, small allocations),
// Go map lookups tracked the jobs most closely: eight 15-second
// attack200 runs whose median job time spread by 0.33 of its median
// spread by 0.013 in reference units.
//
// The kernel depends only on the Go runtime, never on the repository's
// code, so a change to the program moves the job's share of the ratio
// alone. It allocates nothing, so the program's heap and collector do
// not reach it. Changing it changes the unit: results taken before and
// after such a change are not comparable.
type reference struct {
	keys []uint64
	m    map[uint64]uint32
	sink uint32
}

const (
	refKeys   = 4096
	refPasses = 8
)

func newReference() *reference {
	r := &reference{keys: make([]uint64, refKeys), m: make(map[uint64]uint32, refKeys)}
	x := uint64(88172645463325252) // xorshift64: fixed keys on every host
	for i := range r.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.keys[i] = x
		r.m[x] = uint32(i)
	}
	return r
}

// time runs the kernel once and returns how long it took: refPasses
// passes of lookups of every key, about half a millisecond.
func (r *reference) time() time.Duration {
	t := time.Now()
	var s uint32
	for range refPasses {
		for _, k := range r.keys {
			s += r.m[k]
		}
	}
	d := time.Since(t)
	r.sink += s
	return d
}

// near returns the reference time for the job run between refs[k] and
// refs[k+1]: the median of the timings just before and just after it
// and the one before that, so one disturbed timing does not skew a job.
func near(refs []float64, k int) float64 {
	return median(refs[max(0, k-1):min(len(refs), k+2)])
}
