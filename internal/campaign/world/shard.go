package world

import (
	"math"
	"runtime"
	"sync"

	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Sharded tick stepping. The per-tick work that scales with network size
// — the step kernel (battery drain, depletion forecast, request-threshold
// test) and lifetime sampling — is embarrassingly parallel over nodes:
// each node's contribution reads and writes only its own dense-storage
// slots. The shard runner partitions the node set once (by grid region,
// so a shard streams neighboring rows of the struct-of-arrays storage),
// runs the same wrsn.StepKernel the sequential path runs on each shard,
// and merges per-shard results under rules that reproduce the sequential
// pass exactly:
//
//   - deaths and low-battery candidates: each shard's lists are
//     ascending by ID (shards hold ascending IDs and the kernel preserves
//     input order), so an ascending-ID merge yields precisely the
//     full pass's lists — recordDeath order, and through it the ledger,
//     is unchanged, and the request scan's mutating tail (the loss draw,
//     the queue insert, the ledger write) applies sequentially in
//     ascending ID order, consuming RNG draws in the sequential order;
//   - next depletion: per-shard minima merge by (time, ID) lex order,
//     matching the full pass's strict-< lowest-ID tie rule;
//   - samples: per-shard counts are integers; addition is exact and
//     order-free.
//
// Anything that touches shared mutable state (routing recompute, ledger,
// queue, probe) stays on the caller's goroutine. The outcome is therefore
// byte-identical at any shard count, which the campaign digest tests pin
// at several explicit counts.

// autoShardMinNodes is the per-shard node floor under automatic sharding:
// below ~4k nodes per shard the goroutine fan-out costs more than the
// scan it splits.
const autoShardMinNodes = 4096

// shardRunner owns the partition and the per-shard scratch for one world.
// A nil *shardRunner means sequential stepping.
type shardRunner struct {
	nw     *wrsn.Network
	shards [][]wrsn.NodeID

	// Per-shard scratch, indexed by shard. Slices are written only by the
	// owning shard's goroutine during a fan-out.
	died  [][]wrsn.NodeID
	low   [][]wrsn.NodeID
	depT  []float64
	depID []wrsn.NodeID
	alive []int
	conn  []int
	key   []int

	// tmp is mergeAscending's second buffer, reused across ticks.
	tmp []wrsn.NodeID
}

// newShardRunner builds the partition for k-way stepping. k == 0 sizes
// automatically from GOMAXPROCS and the node count; k <= 1 (or a network
// too small to split) returns nil, selecting the sequential path.
func newShardRunner(nw *wrsn.Network, k int) *shardRunner {
	n := len(nw.Nodes())
	if k == 0 {
		k = runtime.GOMAXPROCS(0)
		if byNodes := n / autoShardMinNodes; byNodes < k {
			k = byNodes
		}
	}
	if k <= 1 || n < 2 {
		return nil
	}
	shards := nw.RegionShards(k)
	if len(shards) <= 1 {
		return nil
	}
	k = len(shards)
	sh := &shardRunner{
		nw:     nw,
		shards: shards,
		died:   make([][]wrsn.NodeID, k),
		low:    make([][]wrsn.NodeID, k),
		depT:   make([]float64, k),
		depID:  make([]wrsn.NodeID, k),
		alive:  make([]int, k),
		conn:   make([]int, k),
		key:    make([]int, k),
	}
	for s := range shards {
		sh.died[s] = make([]wrsn.NodeID, 0, 16)
		sh.low[s] = make([]wrsn.NodeID, 0, 64)
	}
	return sh
}

// run fans fn across shards, keeping shard 0 on the caller's goroutine,
// and barriers until every shard returns.
func (sh *shardRunner) run(fn func(s int)) {
	var wg sync.WaitGroup
	for s := 1; s < len(sh.shards); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	fn(0)
	wg.Wait()
}

// step runs the kernel on every shard in parallel and returns the
// forecast merged under the full pass's (time, lowest ID) rule. The
// per-shard death and low-battery lists stay with the runner until
// lists merges them; a forecast-only pass never pays for the merge.
func (sh *shardRunner) step(dt, next, reqFrac float64) (t float64, who wrsn.NodeID) {
	sh.run(func(s int) {
		sh.died[s], sh.low[s], sh.depT[s], sh.depID[s] =
			sh.nw.StepKernel(sh.shards[s], dt, next, reqFrac, sh.died[s][:0], sh.low[s][:0])
	})
	t, who = math.Inf(1), wrsn.ParentNone
	for s := range sh.depT {
		if sh.depT[s] < t || (sh.depT[s] == t && sh.depID[s] < who) {
			t, who = sh.depT[s], sh.depID[s]
		}
	}
	return t, who
}

// lists merges the last pass's per-shard deaths and low-battery
// candidates onto died and low, ascending — exactly the lists one
// sequential kernel pass over all nodes returns.
func (sh *shardRunner) lists(died, low []wrsn.NodeID) ([]wrsn.NodeID, []wrsn.NodeID) {
	return sh.mergeAscending(died, sh.died), sh.mergeAscending(low, sh.low)
}

// sampleCounts tallies alive / connected / key-alive across shards.
func (sh *shardRunner) sampleCounts(keySet []bool) (alive, connected, keyAlive int) {
	nw := sh.nw
	nodes := nw.Nodes()
	sh.run(func(s int) {
		var a, c, k int
		for _, id := range sh.shards[s] {
			if !nodes[id].Alive() {
				continue
			}
			a++
			if nw.Connected(id) {
				c++
			}
			if keySet[id] {
				k++
			}
		}
		sh.alive[s], sh.conn[s], sh.key[s] = a, c, k
	})
	for s := range sh.alive {
		alive += sh.alive[s]
		connected += sh.conn[s]
		keyAlive += sh.key[s]
	}
	return alive, connected, keyAlive
}

// mergeAscending merges per-shard ascending ID lists (disjoint across
// shards) onto out and returns it, ascending. It folds in one list at a
// time with a two-way merge, ping-ponging between out's buffer and tmp.
func (sh *shardRunner) mergeAscending(out []wrsn.NodeID, lists [][]wrsn.NodeID) []wrsn.NodeID {
	out = append(out[:0], lists[0]...)
	for _, b := range lists[1:] {
		a, m := out, sh.tmp[:0]
		for len(a) > 0 && len(b) > 0 {
			if a[0] < b[0] {
				m, a = append(m, a[0]), a[1:]
			} else {
				m, b = append(m, b[0]), b[1:]
			}
		}
		m = append(append(m, a...), b...)
		sh.tmp, out = out, m
	}
	return out
}
