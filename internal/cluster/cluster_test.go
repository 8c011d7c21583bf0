package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/counters"
	"repro/internal/distindex"
	"repro/internal/dna"
	"repro/internal/seeds"
	"repro/internal/vgraph"
)

// linearGraph builds a chain of nodes of the given length.
func linearGraph(t *testing.T, total, nodeLen int) (*vgraph.Graph, []vgraph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := &vgraph.Graph{}
	var ids []vgraph.NodeID
	for i := 0; i < total; i += nodeLen {
		n := nodeLen
		if i+n > total {
			n = total - i
		}
		seq := make(dna.Sequence, n)
		for j := range seq {
			seq[j] = dna.Base(rng.Intn(4))
		}
		id, err := g.AddNode(seq)
		if err != nil {
			t.Fatal(err)
		}
		g.SetBackbone(id, int32(i))
		if len(ids) > 0 {
			if err := g.AddEdge(ids[len(ids)-1], id); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	return g, ids
}

// seedAt makes a forward seed at linear coordinate c on a chain with the
// given node length.
func seedAt(ids []vgraph.NodeID, nodeLen, c int, score float32, readOff int32) seeds.Seed {
	return seeds.Seed{
		Pos:     vgraph.Position{Node: ids[c/nodeLen], Off: int32(c % nodeLen)},
		ReadOff: readOff,
		Score:   score,
	}
}

func TestClusterSeedsEmpty(t *testing.T) {
	g, _ := linearGraph(t, 100, 10)
	ix := distindex.New(g)
	if cs := ClusterSeeds(ix, nil, DefaultParams(), nil, 0); cs != nil {
		t.Errorf("clusters of no seeds = %v", cs)
	}
}

func TestClusterSeedsTwoGroups(t *testing.T) {
	g, ids := linearGraph(t, 2000, 10)
	ix := distindex.New(g)
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 2, 0),
		seedAt(ids, 10, 130, 2, 30),
		seedAt(ids, 10, 160, 2, 60),
		// far away: separate cluster
		seedAt(ids, 10, 1500, 3, 10),
		seedAt(ids, 10, 1520, 3, 40),
	}
	cs := ClusterSeeds(ix, ss, Params{DistanceLimit: 100, CheckWindow: 4}, nil, 0)
	if len(cs) != 2 {
		t.Fatalf("%d clusters, want 2", len(cs))
	}
	var sizes []int
	for _, c := range cs {
		sizes = append(sizes, len(c.SeedIdx))
	}
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{2, 3}) {
		t.Errorf("cluster sizes = %v, want [2 3]", sizes)
	}
}

func TestClusteringIsPartition(t *testing.T) {
	g, ids := linearGraph(t, 3000, 16)
	ix := distindex.New(g)
	rng := rand.New(rand.NewSource(7))
	var ss []seeds.Seed
	for i := 0; i < 60; i++ {
		ss = append(ss, seedAt(ids, 16, rng.Intn(2900), float32(1+rng.Float64()), int32(rng.Intn(100))))
	}
	cs := ClusterSeeds(ix, ss, DefaultParams(), nil, 0)
	seen := make([]bool, len(ss))
	for _, c := range cs {
		for _, i := range c.SeedIdx {
			if seen[i] {
				t.Fatalf("seed %d in two clusters", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("seed %d in no cluster", i)
		}
	}
}

func TestNearbySeedsShareCluster(t *testing.T) {
	g, ids := linearGraph(t, 1000, 10)
	ix := distindex.New(g)
	// Any two seeds within the limit must be in one cluster (direct check
	// window covers them).
	ss := []seeds.Seed{
		seedAt(ids, 10, 300, 1, 0),
		seedAt(ids, 10, 320, 1, 20),
	}
	cs := ClusterSeeds(ix, ss, Params{DistanceLimit: 50, CheckWindow: 4}, nil, 0)
	if len(cs) != 1 {
		t.Fatalf("%d clusters, want 1", len(cs))
	}
}

func TestOrientationSeparatesClusters(t *testing.T) {
	g, ids := linearGraph(t, 1000, 10)
	ix := distindex.New(g)
	fwd := seedAt(ids, 10, 300, 1, 0)
	rev := seedAt(ids, 10, 305, 1, 0)
	rev.Rev = true
	cs := ClusterSeeds(ix, []seeds.Seed{fwd, rev}, DefaultParams(), nil, 0)
	if len(cs) != 2 {
		t.Fatalf("%d clusters, want 2 (orientations must not merge)", len(cs))
	}
}

func TestPermutationInvariance(t *testing.T) {
	g, ids := linearGraph(t, 2000, 10)
	ix := distindex.New(g)
	rng := rand.New(rand.NewSource(3))
	var ss []seeds.Seed
	for i := 0; i < 30; i++ {
		ss = append(ss, seedAt(ids, 10, rng.Intn(1900), float32(1+rng.Float64()), int32(rng.Intn(90))))
	}
	canon := func(in []seeds.Seed) [][]vgraph.Position {
		cs := ClusterSeeds(ix, in, DefaultParams(), nil, 0)
		var out [][]vgraph.Position
		for _, c := range cs {
			var poss []vgraph.Position
			for _, i := range c.SeedIdx {
				poss = append(poss, in[i].Pos)
			}
			sort.Slice(poss, func(a, b int) bool {
				if poss[a].Node != poss[b].Node {
					return poss[a].Node < poss[b].Node
				}
				return poss[a].Off < poss[b].Off
			})
			out = append(out, poss)
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a][0].Node != out[b][0].Node {
				return out[a][0].Node < out[b][0].Node
			}
			return out[a][0].Off < out[b][0].Off
		})
		return out
	}
	want := canon(ss)
	for trial := 0; trial < 5; trial++ {
		shuffled := make([]seeds.Seed, len(ss))
		copy(shuffled, ss)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := canon(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: clusters depend on seed order", trial)
		}
	}
}

func TestClusterScore(t *testing.T) {
	g, ids := linearGraph(t, 500, 10)
	ix := distindex.New(g)
	// Two seeds at the same read offset: only the best counts; a third at a
	// different offset adds its own score.
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 2.0, 0),
		seedAt(ids, 10, 104, 3.0, 0),
		seedAt(ids, 10, 110, 1.5, 25),
	}
	cs := ClusterSeeds(ix, ss, DefaultParams(), nil, 0)
	if len(cs) != 1 {
		t.Fatalf("%d clusters, want 1", len(cs))
	}
	if got, want := cs[0].Score, 4.5; got != want {
		t.Errorf("Score = %f, want %f", got, want)
	}
}

func TestClustersSortedByScore(t *testing.T) {
	g, ids := linearGraph(t, 3000, 10)
	ix := distindex.New(g)
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 1, 0),
		seedAt(ids, 10, 1000, 5, 0),
		seedAt(ids, 10, 2000, 3, 0),
	}
	cs := ClusterSeeds(ix, ss, Params{DistanceLimit: 50, CheckWindow: 4}, nil, 0)
	if len(cs) != 3 {
		t.Fatalf("%d clusters, want 3", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Score > cs[i-1].Score {
			t.Fatalf("clusters not score-sorted: %v", cs)
		}
	}
}

func TestProbeAccounting(t *testing.T) {
	g, ids := linearGraph(t, 1000, 10)
	ix := distindex.New(g)
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 1, 0),
		seedAt(ids, 10, 120, 1, 20),
	}
	h := counters.NewDefaultHierarchy()
	ClusterSeeds(ix, ss, DefaultParams(), h, 0)
	c := h.Snapshot(counters.DefaultCycleModel)
	if c.Instr == 0 {
		t.Error("probe recorded no instructions")
	}
	if c.L1DA == 0 {
		t.Error("probe recorded no accesses")
	}
}

// exactClusters computes the ground-truth partition: transitive closure of
// "graph distance ≤ limit" over all same-orientation seed pairs.
func exactClusters(ix *distindex.Index, ss []seeds.Seed, limit int) [][]int {
	var uf unionFind
	uf.reset(len(ss))
	for i := 0; i < len(ss); i++ {
		for j := i + 1; j < len(ss); j++ {
			if ss[i].Rev != ss[j].Rev {
				continue
			}
			if ix.MinDistance(ss[i].Pos, ss[j].Pos, limit) != distindex.Unreachable {
				uf.union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := range ss {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	var out [][]int
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// TestWindowedClusteringMatchesExact cross-validates the windowed union-find
// against the all-pairs ground truth on random seed sets. On backbone-sorted
// seeds the window heuristic finds the same partition whenever cluster
// members are within the check window of a neighbour — which random
// cluster-scale seed sets satisfy.
func TestWindowedClusteringMatchesExact(t *testing.T) {
	g, ids := linearGraph(t, 4000, 16)
	ix := distindex.New(g)
	rng := rand.New(rand.NewSource(99))
	params := DefaultParams()
	for trial := 0; trial < 10; trial++ {
		var ss []seeds.Seed
		// A few dense clumps plus isolated seeds.
		for c := 0; c < 4; c++ {
			center := 200 + rng.Intn(3400)
			for k := 0; k < 3+rng.Intn(4); k++ {
				ss = append(ss, seedAt(ids, 16, center+rng.Intn(120), 1, int32(k*20)))
			}
		}
		for k := 0; k < 5; k++ {
			ss = append(ss, seedAt(ids, 16, rng.Intn(3900), 1, 0))
		}
		got := ClusterSeeds(ix, ss, params, nil, 0)
		var gotSets [][]int
		for _, c := range got {
			gotSets = append(gotSets, c.SeedIdx)
		}
		sort.Slice(gotSets, func(a, b int) bool { return gotSets[a][0] < gotSets[b][0] })
		want := exactClusters(ix, ss, params.DistanceLimit)
		if !reflect.DeepEqual(gotSets, want) {
			t.Fatalf("trial %d: windowed partition %v != exact %v", trial, gotSets, want)
		}
	}
}

// randomSeedSet draws clumps plus scattered noise of varying size, so a
// reused Scratch sees both growing and shrinking inputs.
func randomSeedSet(rng *rand.Rand, ids []vgraph.NodeID) []seeds.Seed {
	var ss []seeds.Seed
	for c := rng.Intn(5); c > 0; c-- {
		center := 200 + rng.Intn(3400)
		rev := rng.Intn(2) == 1
		for k := 0; k < 1+rng.Intn(8); k++ {
			s := seedAt(ids, 16, center+rng.Intn(150), float32(1+rng.Intn(3)), int32(rng.Intn(140)))
			s.Rev = rev
			ss = append(ss, s)
		}
	}
	for k := rng.Intn(6); k > 0; k-- {
		ss = append(ss, seedAt(ids, 16, rng.Intn(3900), 1, int32(rng.Intn(140))))
	}
	return ss
}

// TestScratchMatchesFresh checks that one Scratch reused across reads of
// every size returns exactly what a fresh one does.
func TestScratchMatchesFresh(t *testing.T) {
	g, ids := linearGraph(t, 4000, 16)
	ix := distindex.New(g)
	rng := rand.New(rand.NewSource(7))
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		ss := randomSeedSet(rng, ids)
		want := ClusterSeeds(ix, ss, DefaultParams(), nil, 0)
		got := sc.ClusterSeeds(ix, ss, DefaultParams(), nil, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: scratch clusters %+v, fresh %+v", trial, got, want)
		}
	}
}

// TestScratchClusterSeedsAllocs locks in the scratch path's steady state:
// once its buffers have grown, clustering a read allocates nothing.
func TestScratchClusterSeedsAllocs(t *testing.T) {
	g, ids := linearGraph(t, 4000, 16)
	ix := distindex.New(g)
	rng := rand.New(rand.NewSource(8))
	sets := make([][]seeds.Seed, 20)
	for i := range sets {
		sets[i] = randomSeedSet(rng, ids)
	}
	var sc Scratch
	for _, ss := range sets {
		sc.ClusterSeeds(ix, ss, DefaultParams(), nil, 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		sc.ClusterSeeds(ix, sets[i%len(sets)], DefaultParams(), nil, 0)
		i++
	})
	if allocs != 0 {
		t.Errorf("warm Scratch.ClusterSeeds allocates %.1f times per read, want 0", allocs)
	}
}

func BenchmarkClusterSeeds(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := &vgraph.Graph{}
	var ids []vgraph.NodeID
	for i := 0; i < 6000; i += 16 {
		seq := make(dna.Sequence, 16)
		for j := range seq {
			seq[j] = dna.Base(rng.Intn(4))
		}
		id, _ := g.AddNode(seq)
		g.SetBackbone(id, int32(i))
		if len(ids) > 0 {
			if err := g.AddEdge(ids[len(ids)-1], id); err != nil {
				b.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	ix := distindex.New(g)
	// A realistic per-read seed set: one dense clump + scattered noise.
	var ss []seeds.Seed
	center := 2000
	for k := 0; k < 12; k++ {
		ss = append(ss, seedAt(ids, 16, center+k*10, float32(1+rng.Float64()), int32(k*12)))
	}
	for k := 0; k < 6; k++ {
		ss = append(ss, seedAt(ids, 16, rng.Intn(5900), 1, int32(rng.Intn(140))))
	}
	p := DefaultParams()
	b.Run("scratch", func(b *testing.B) {
		var sc Scratch
		sc.ClusterSeeds(ix, ss, p, nil, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.ClusterSeeds(ix, ss, p, nil, 0)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ClusterSeeds(ix, ss, p, nil, 0)
		}
	})
}
