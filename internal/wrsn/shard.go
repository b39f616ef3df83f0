package wrsn

import "sort"

// RegionShards partitions every node ID into at most k shards of
// near-equal size, grouped by grid region: the position grid is walked in
// row-major bucket order (spatially adjacent nodes land together) and cut
// into contiguous runs, so a shard's nodes cluster in the field and its
// battery/forecast scans stream neighboring rows of the dense storage.
// IDs are ascending within each shard — the order StepKernel needs for
// its deterministic merge rules. The partition depends only on node
// positions, so it is stable across runs.
func (nw *Network) RegionShards(k int) [][]NodeID {
	n := len(nw.nodes)
	if k > n {
		k = n
	}
	if k <= 1 {
		all := make([]NodeID, n)
		for i := range all {
			all[i] = NodeID(i)
		}
		return [][]NodeID{all}
	}
	ordered := nw.grid.AppendAll(make([]int32, 0, n))
	if len(ordered) != n {
		// Degenerate grid (no index built): fall back to ID-order runs.
		ordered = ordered[:0]
		for i := 0; i < n; i++ {
			ordered = append(ordered, int32(i))
		}
	}
	per := (n + k - 1) / k
	shards := make([][]NodeID, 0, k)
	for start := 0; start < n; start += per {
		end := start + per
		if end > n {
			end = n
		}
		ids := make([]NodeID, 0, end-start)
		for _, c := range ordered[start:end] {
			ids = append(ids, NodeID(c))
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		shards = append(shards, ids)
	}
	return shards
}
