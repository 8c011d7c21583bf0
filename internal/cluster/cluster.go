// Package cluster implements cluster_seeds, the second most expensive
// critical function in Giraffe's mapping pipeline (11.6%–21% of runtime in
// the paper's characterisation, §IV-A): it groups a read's seeds by minimum
// graph distance and scores each group so the extension stage can
// concentrate on the most promising regions of the pangenome.
package cluster

import (
	"cmp"
	"slices"

	"repro/internal/counters"
	"repro/internal/distindex"
	"repro/internal/seeds"
)

// Params tunes the clustering kernel.
type Params struct {
	// DistanceLimit is the maximum graph distance (bases) between two seeds
	// in the same cluster. Giraffe derives it from the read length; the
	// synthetic workloads default to 200.
	DistanceLimit int
	// CheckWindow bounds how many backbone-sorted neighbours each seed is
	// compared against; seeds further apart in backbone order than this are
	// connected transitively if at all.
	CheckWindow int
}

// DefaultParams mirrors Giraffe's short-read defaults at this scale.
func DefaultParams() Params { return Params{DistanceLimit: 200, CheckWindow: 6} }

// normalize fills zero fields with defaults so a zero Params means "Giraffe
// defaults", matching extend.Params behaviour.
func (p Params) normalize() Params {
	d := DefaultParams()
	if p.DistanceLimit == 0 {
		p.DistanceLimit = d.DistanceLimit
	}
	if p.CheckWindow == 0 {
		p.CheckWindow = d.CheckWindow
	}
	return p
}

// Cluster is one group of distance-consistent seeds.
type Cluster struct {
	// SeedIdx are indices into the read's seed slice, ascending.
	SeedIdx []int
	// Score is the sum, over distinct read offsets in the cluster, of the
	// best minimizer score at that offset — Giraffe's cluster score.
	Score float64
}

// unionFind is a standard path-halving union-find.
type unionFind struct {
	parent []int
}

// reset makes n singleton sets, reusing the parent array.
func (u *unionFind) reset(n int) {
	u.parent = resize(u.parent, n)
	for i := range u.parent {
		u.parent[i] = i
	}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// resize returns buf with length n, reallocating only when it is too small.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// Scratch is ClusterSeeds' reusable working memory: the sort order and
// backbone coordinates, the union-find, the root-grouped seed indices that
// back every cluster's SeedIdx, and the cluster list itself. A Scratch is
// not safe for concurrent use.
type Scratch struct {
	order, coord, byRoot []int
	uf                   unionFind
	clusters             []Cluster
}

// ClusterSeeds groups the seeds of one read. readIdx identifies the read for
// the instrumentation address map; probe may be nil. The result is owned by
// the caller; Scratch.ClusterSeeds is the allocation-free form.
func ClusterSeeds(ix *distindex.Index, ss []seeds.Seed, p Params, probe counters.Probe, readIdx int) []Cluster {
	return new(Scratch).ClusterSeeds(ix, ss, p, probe, readIdx)
}

// ClusterSeeds runs the clustering kernel in s's buffers. The returned
// clusters and their SeedIdx slices alias s: they stay valid until the next
// call on s.
//
// The algorithm sorts seeds by orientation and projected backbone
// coordinate, then unions each seed with its nearby neighbours whenever
// their exact graph distance is within the limit. Same-orientation seeds
// only: a forward and a reverse seed never share a cluster.
//
//minigiraffe:hot
func (s *Scratch) ClusterSeeds(ix *distindex.Index, ss []seeds.Seed, p Params, probe counters.Probe, readIdx int) []Cluster {
	p = p.normalize()
	if len(ss) == 0 {
		return nil
	}
	g := ix.Graph()
	// Sort seed indices by (orientation, backbone coordinate).
	order := resize(s.order, len(ss))
	coord := resize(s.coord, len(ss))
	s.order, s.coord = order, coord
	for i := range ss {
		order[i] = i
		coord[i] = int(g.Backbone(ss[i].Pos.Node)) + int(ss[i].Pos.Off)
	}
	slices.SortFunc(order, func(ia, ib int) int {
		if ss[ia].Rev != ss[ib].Rev {
			if ss[ib].Rev {
				return -1
			}
			return 1
		}
		if coord[ia] != coord[ib] {
			return cmp.Compare(coord[ia], coord[ib])
		}
		return cmp.Compare(ia, ib)
	})
	if probe != nil {
		// Sorting cost and one touch per seed record.
		probe.Instr(int64(len(ss)) * 24)
		for i := range ss {
			probe.Access(counters.SeedAddr(readIdx, i), counters.SeedSize)
		}
	}

	uf := &s.uf
	uf.reset(len(ss))
	for a := 0; a < len(order); a++ {
		i := order[a]
		for b := a + 1; b < len(order) && b <= a+p.CheckWindow; b++ {
			j := order[b]
			if ss[i].Rev != ss[j].Rev {
				break // orientation groups are contiguous in the sort
			}
			if coord[j]-coord[i] > p.DistanceLimit {
				break // sorted by coordinate: later neighbours only farther
			}
			if probe != nil {
				probe.Instr(40)
				probe.Access(counters.NodeSeqAddr(uint32(ss[i].Pos.Node), 0), 8)
				probe.Access(counters.NodeSeqAddr(uint32(ss[j].Pos.Node), 0), 8)
			}
			d := ix.MinDistance(ss[i].Pos, ss[j].Pos, p.DistanceLimit)
			if d != distindex.Unreachable {
				uf.union(i, j)
			}
		}
	}

	// Collect clusters and score them. Ordering seed indices by union-find
	// root (ties by index) makes every cluster one contiguous, ascending run
	// of byRoot, which then backs the cluster's SeedIdx directly.
	byRoot := resize(s.byRoot, len(ss))
	s.byRoot = byRoot
	for i := range byRoot {
		byRoot[i] = i
	}
	slices.SortFunc(byRoot, func(a, b int) int {
		if ra, rb := uf.find(a), uf.find(b); ra != rb {
			return cmp.Compare(ra, rb)
		}
		return cmp.Compare(a, b)
	})
	out := s.clusters[:0]
	for lo := 0; lo < len(byRoot); {
		root := uf.find(byRoot[lo])
		hi := lo + 1
		for hi < len(byRoot) && uf.find(byRoot[hi]) == root {
			hi++
		}
		idxs := byRoot[lo:hi:hi]
		out = append(out, Cluster{SeedIdx: idxs, Score: scoreCluster(ss, idxs)})
		lo = hi
	}
	s.clusters = out
	// Deterministic order: score descending, then first seed index.
	slices.SortFunc(out, func(a, b Cluster) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.SeedIdx[0], b.SeedIdx[0])
	})
	if probe != nil {
		probe.Instr(int64(len(out)) * 16)
	}
	return out
}

// scoreCluster sums the best minimizer score per distinct read offset.
// Clusters hold a handful of seeds, so an O(n²) scan beats allocating a
// per-cluster map — and unlike map iteration, the float accumulation order
// is deterministic.
func scoreCluster(ss []seeds.Seed, idxs []int) float64 {
	total := 0.0
	for a, i := range idxs {
		off, sc := ss[i].ReadOff, float64(ss[i].Score)
		best := true
		for b, j := range idxs {
			if b == a || ss[j].ReadOff != off {
				continue
			}
			if sj := float64(ss[j].Score); sj > sc || (sj == sc && b < a) {
				best = false
				break
			}
		}
		if best {
			total += sc
		}
	}
	return total
}
