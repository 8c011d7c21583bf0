package extend

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/distindex"
	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/minimizer"
	"repro/internal/seeds"
	"repro/internal/vgraph"
)

// fixture bundles a pangenome, its GBWT, minimizer and distance indices.
type fixture struct {
	pg    *vgraph.Pangenome
	index *gbwt.GBWT
	bi    *gbwt.Bidirectional
	minIx *minimizer.Index
	dist  *distindex.Index
	haps  [][]vgraph.NodeID
	seqs  []dna.Sequence
}

func buildFixture(t testing.TB, seed int64, refLen, nHaps int) *fixture {
	t.Helper()
	return buildSpacedFixture(t, seed, refLen, nHaps, 70, 70, 3)
}

// buildBubbleFixture packs a bubble every 6–9 bases, three in four of them
// SNPs, so reads cross many sibling branches that tie on score and reach.
func buildBubbleFixture(t testing.TB, seed int64, refLen, nHaps int) *fixture {
	t.Helper()
	return buildSpacedFixture(t, seed, refLen, nHaps, 6, 4, 4)
}

// buildSpacedFixture places a variant every gap+rand(jitter) bases; kinds
// picks among SNP, insertion, deletion, with kinds > 3 adding extra SNP
// weight.
func buildSpacedFixture(t testing.TB, seed int64, refLen, nHaps, gap, jitter, kinds int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make(dna.Sequence, refLen)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 60; pos < refLen-60; pos += gap + rng.Intn(jitter) {
		switch rng.Intn(kinds) {
		case 0, 3:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1) & 3}})
		case 1:
			ins := make(dna.Sequence, 1+rng.Intn(5))
			for i := range ins {
				ins[i] = dna.Base(rng.Intn(4))
			}
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Insertion, Alt: ins})
		case 2:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Deletion, DelLen: 1 + rng.Intn(min(6, gap-2))})
		}
	}
	pg, err := vgraph.BuildPangenome(ref, vs, 16)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{pg: pg}
	for h := 0; h < nHaps; h++ {
		alleles := make([]int, pg.NumSites())
		for i := range alleles {
			alleles[i] = rng.Intn(pg.NumAlleles(i))
		}
		path, err := pg.HaplotypePath(alleles)
		if err != nil {
			t.Fatal(err)
		}
		f.haps = append(f.haps, path)
		seq, err := pg.HaplotypeSeq(alleles)
		if err != nil {
			t.Fatal(err)
		}
		f.seqs = append(f.seqs, seq)
	}
	f.index, err = gbwt.New(f.haps)
	if err != nil {
		t.Fatal(err)
	}
	f.bi, err = gbwt.FromForward(f.index, f.haps)
	if err != nil {
		t.Fatal(err)
	}
	f.minIx, err = minimizer.Build(pg.Graph, f.haps, minimizer.Config{K: 15, W: 8})
	if err != nil {
		t.Fatal(err)
	}
	f.dist = distindex.New(pg.Graph)
	return f
}

// mapRead runs the full kernel pipeline for a read.
func (f *fixture) mapRead(t testing.TB, read *dna.Read, capacity int, probe counters.Probe) []Extension {
	t.Helper()
	ss, err := seeds.Extract(f.minIx, read)
	if err != nil {
		t.Fatal(err)
	}
	cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), probe, 0)
	env := &Env{
		Graph: f.pg.Graph,
		Bi:    f.bi.NewBiReader(capacity),
		Probe: probe,
	}
	return ProcessUntilThresholdC(env, read, ss, cls, Params{}, 0)
}

// spellExtension walks the extension's path from StartPos, returning the
// graph bases it covers.
func (f *fixture) spellExtension(t *testing.T, e *Extension) dna.Sequence {
	t.Helper()
	g := f.pg.Graph
	var out dna.Sequence
	need := int(e.Len())
	for pi, node := range e.Path {
		label := g.Seq(node)
		start := 0
		if pi == 0 {
			if node != e.StartPos.Node {
				t.Fatalf("path[0]=%d but StartPos.Node=%d", node, e.StartPos.Node)
			}
			start = int(e.StartPos.Off)
		}
		for o := start; o < len(label) && len(out) < need; o++ {
			out = append(out, label[o])
		}
		if len(out) >= need {
			break
		}
	}
	return out
}

func TestExactReadFullExtension(t *testing.T) {
	f := buildFixture(t, 1, 4000, 6)
	hap := 2
	read := &dna.Read{Name: "r0", Seq: f.seqs[hap][500:620].Clone(), Fragment: -1}
	exts := f.mapRead(t, read, 256, nil)
	if len(exts) == 0 {
		t.Fatal("no extensions for exact read")
	}
	best := exts[0]
	if best.ReadStart != 0 || best.ReadEnd != int32(len(read.Seq)) {
		t.Errorf("best extension covers [%d,%d), want full read [0,%d)", best.ReadStart, best.ReadEnd, len(read.Seq))
	}
	if len(best.Mismatches) != 0 {
		t.Errorf("exact read has %d mismatches: %v", len(best.Mismatches), best.Mismatches)
	}
	wantScore := int32(len(read.Seq)) + 2*5 // all matches + both full-length bonuses
	if best.Score != wantScore {
		t.Errorf("Score = %d, want %d", best.Score, wantScore)
	}
	if best.Rev {
		t.Error("forward read mapped as reverse")
	}
}

func TestReadWithOneError(t *testing.T) {
	f := buildFixture(t, 2, 4000, 6)
	read := &dna.Read{Name: "r1", Seq: f.seqs[0][1000:1120].Clone(), Fragment: -1}
	read.Seq[60] = (read.Seq[60] + 1) & 3 // plant one error mid-read
	exts := f.mapRead(t, read, 256, nil)
	if len(exts) == 0 {
		t.Fatal("no extensions")
	}
	best := exts[0]
	if best.ReadStart != 0 || best.ReadEnd != int32(len(read.Seq)) {
		t.Fatalf("extension covers [%d,%d), want full", best.ReadStart, best.ReadEnd)
	}
	if len(best.Mismatches) != 1 || best.Mismatches[0] != 60 {
		t.Errorf("Mismatches = %v, want [60]", best.Mismatches)
	}
	wantScore := int32(len(read.Seq)-1) - 4 + 10
	if best.Score != wantScore {
		t.Errorf("Score = %d, want %d", best.Score, wantScore)
	}
}

func TestReverseStrandRead(t *testing.T) {
	f := buildFixture(t, 3, 4000, 6)
	fwd := &dna.Read{Name: "f", Seq: f.seqs[1][700:820].Clone(), Fragment: -1}
	rev := &dna.Read{Name: "r", Seq: f.seqs[1][700:820].RevComp(), Fragment: -1}
	fe := f.mapRead(t, fwd, 256, nil)
	re := f.mapRead(t, rev, 256, nil)
	if len(fe) == 0 || len(re) == 0 {
		t.Fatal("missing extensions")
	}
	if fe[0].Rev {
		t.Error("forward read marked Rev")
	}
	if !re[0].Rev {
		t.Error("reverse read not marked Rev")
	}
	// Both strands anchor the same graph region with the same score.
	if fe[0].StartPos != re[0].StartPos {
		t.Errorf("start positions differ: %v vs %v", fe[0].StartPos, re[0].StartPos)
	}
	if fe[0].Score != re[0].Score {
		t.Errorf("scores differ: %d vs %d", fe[0].Score, re[0].Score)
	}
}

func TestExtensionSpellsRead(t *testing.T) {
	f := buildFixture(t, 4, 5000, 8)
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		hap := rng.Intn(len(f.seqs))
		start := rng.Intn(len(f.seqs[hap]) - 130)
		seq := f.seqs[hap][start : start+120].Clone()
		nErr := rng.Intn(3)
		for e := 0; e < nErr; e++ {
			p := rng.Intn(len(seq))
			seq[p] = (seq[p] + 1 + dna.Base(rng.Intn(3))) & 3
		}
		read := &dna.Read{Name: "t", Seq: seq, Fragment: -1}
		exts := f.mapRead(t, read, 256, nil)
		for _, e := range exts {
			oriented := read.Seq
			if e.Rev {
				oriented = read.Seq.RevComp()
			}
			spelled := f.spellExtension(t, &e)
			if int32(len(spelled)) != e.Len() {
				t.Fatalf("trial %d: spelled %d bases for extension of length %d", trial, len(spelled), e.Len())
			}
			mismSet := map[int32]bool{}
			for _, m := range e.Mismatches {
				mismSet[m] = true
			}
			for j := int32(0); j < e.Len(); j++ {
				ro := e.ReadStart + j
				if mismSet[ro] {
					if spelled[j] == oriented[ro] {
						t.Fatalf("trial %d: offset %d reported mismatch but matches", trial, ro)
					}
				} else if spelled[j] != oriented[ro] {
					t.Fatalf("trial %d: offset %d mismatches but not reported", trial, ro)
				}
			}
			// Score formula holds.
			want := (e.Len()-int32(len(e.Mismatches)))*1 - int32(len(e.Mismatches))*4
			if e.ReadStart == 0 {
				want += 5
			}
			if e.ReadEnd == int32(len(oriented)) {
				want += 5
			}
			if e.Score != want {
				t.Fatalf("trial %d: score %d, want %d", trial, e.Score, want)
			}
		}
	}
}

func TestCacheCapacityDoesNotChangeOutput(t *testing.T) {
	f := buildFixture(t, 5, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[3][2000:2120].Clone(), Fragment: -1}
	var results [][]Extension
	for _, capacity := range []int{0, 2, 64, 1024} {
		results = append(results, f.mapRead(t, read, capacity, nil))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("capacity variant %d changed the mapping output", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	f := buildFixture(t, 6, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[0][100:220].Clone(), Fragment: -1}
	a := f.mapRead(t, read, 256, nil)
	b := f.mapRead(t, read, 256, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("kernel output not deterministic")
	}
}

func TestThresholdCStopsLowClusters(t *testing.T) {
	f := buildFixture(t, 7, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[0][300:420].Clone(), Fragment: -1}
	ss, err := seeds.Extract(f.minIx, read)
	if err != nil {
		t.Fatal(err)
	}
	cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
	if len(cls) == 0 {
		t.Skip("read produced a single cluster")
	}
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	// With MaxClusters=1 only the top cluster is extended.
	one := ProcessUntilThresholdC(env, read, ss, cls, Params{MaxClusters: 1, MinClusters: 1}, 0)
	all := ProcessUntilThresholdC(env, read, ss, cls, Params{MaxClusters: 1000, MinClusters: 1000}, 0)
	if len(one) > len(all) {
		t.Errorf("restricted run produced more extensions (%d) than full (%d)", len(one), len(all))
	}
}

func TestMaxMismatchBudget(t *testing.T) {
	f := buildFixture(t, 8, 4000, 6)
	seq := f.seqs[0][1500:1620].Clone()
	// Plant many errors in the right half: extension must stop early.
	for p := 70; p < 110; p += 4 {
		seq[p] = (seq[p] + 1) & 3
	}
	read := &dna.Read{Name: "r", Seq: seq, Fragment: -1}
	exts := f.mapRead(t, read, 256, nil)
	for _, e := range exts {
		if len(e.Mismatches) > 4 {
			t.Fatalf("extension has %d mismatches, budget is 4", len(e.Mismatches))
		}
	}
}

func TestEmptyClusterList(t *testing.T) {
	f := buildFixture(t, 9, 4000, 4)
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	read := &dna.Read{Name: "r", Seq: f.seqs[0][:120].Clone(), Fragment: -1}
	if out := ProcessUntilThresholdC(env, read, nil, nil, Params{}, 0); out != nil {
		t.Errorf("extensions from no clusters: %v", out)
	}
}

func TestProbeCountsWork(t *testing.T) {
	f := buildFixture(t, 10, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[2][900:1020].Clone(), Fragment: -1}
	h := counters.NewDefaultHierarchy()
	f.mapRead(t, read, 256, h)
	c := h.Snapshot(counters.DefaultCycleModel)
	if c.Instr == 0 || c.L1DA == 0 {
		t.Errorf("probe recorded nothing: %+v", c)
	}
}

func TestExtensionKey(t *testing.T) {
	e := Extension{StartPos: vgraph.Position{Node: 5, Off: 3}, ReadStart: 0, ReadEnd: 100}
	if e.Key() != "5:3+:0-100" {
		t.Errorf("Key = %q", e.Key())
	}
	e.Rev = true
	if e.Key() != "5:3-:0-100" {
		t.Errorf("Key = %q", e.Key())
	}
}

func TestParamsNormalize(t *testing.T) {
	p := Params{}.normalize()
	if !reflect.DeepEqual(p, DefaultParams()) {
		t.Errorf("normalize(zero) = %+v, want defaults", p)
	}
	custom := Params{MaxMismatches: 2}.normalize()
	if custom.MaxMismatches != 2 || custom.MaxClusters != DefaultParams().MaxClusters {
		t.Errorf("partial normalize wrong: %+v", custom)
	}
}

// ---------------------------------------------------------------------------
// Reference kernel: the recursive right walk the iterative one replaced,
// kept as it was (allocating on every node visit) as the oracle for
// TestKernelMatchesReference. extendLeft and ProcessUntilThresholdC are
// kept in their allocating form alongside it.

// refWalk carries one direction's outcome in the reference kernel.
type refWalk struct {
	readPos int32
	mism    []int32
	path    []vgraph.NodeID
	pos     vgraph.Position
	reached bool
}

// refKernel counts the right-walk tie-breaks decided by the branches'
// first nodes, so a test can show its reads reach that case.
type refKernel struct{ pathTies int }

func (rk *refKernel) process(env *Env, read *dna.Read, ss []seeds.Seed, clusters []cluster.Cluster, p Params, readIdx int) []Extension {
	p = p.normalize()
	if len(clusters) == 0 {
		return nil
	}
	best := clusters[0].Score
	fwd := read.Seq
	var rev dna.Sequence
	var keys []extKey
	out := make([]Extension, 0, p.MaxClusters*p.MaxSeedsPerCluster)
	processed := 0
	for _, cl := range clusters {
		if processed >= p.MaxClusters {
			break
		}
		if processed >= p.MinClusters && cl.Score < p.ScoreFraction*best {
			break
		}
		processed++
		if env.Probe != nil {
			env.Probe.Instr(32)
		}
		for _, si := range pickSeeds(nil, ss, cl.SeedIdx, p.MaxSeedsPerCluster) {
			seed := ss[si]
			oriented := fwd
			if seed.Rev {
				if rev == nil {
					rev = fwd.RevComp()
					if env.Probe != nil {
						env.Probe.Instr(int64(len(fwd)) * 2)
					}
				}
				oriented = rev
			}
			ext, ok := rk.extendSeed(env, oriented, seed, p, readIdx)
			if !ok {
				continue
			}
			key := extKey{ext.StartPos.Node, ext.StartPos.Off, ext.ReadStart, ext.ReadEnd, ext.Rev}
			if slices.Contains(keys, key) {
				continue
			}
			keys = append(keys, key)
			out = append(out, ext)
		}
	}
	slices.SortFunc(out, func(a, b Extension) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if a.StartPos.Node != b.StartPos.Node {
			return cmp.Compare(a.StartPos.Node, b.StartPos.Node)
		}
		if a.StartPos.Off != b.StartPos.Off {
			return cmp.Compare(a.StartPos.Off, b.StartPos.Off)
		}
		return cmp.Compare(a.ReadStart, b.ReadStart)
	})
	return out
}

func (rk *refKernel) extendSeed(env *Env, r dna.Sequence, seed seeds.Seed, p Params, readIdx int) (Extension, bool) {
	g := env.Graph
	node := seed.Pos.Node
	if !g.Has(node) || int(seed.Pos.Off) >= g.SeqLen(node) {
		return Extension{}, false
	}
	if int(seed.ReadOff) >= len(r) || seed.ReadOff < 0 {
		return Extension{}, false
	}
	state := gbwt.BiState{
		Fwd: env.Bi.Fwd.Base().FullState(node),
		Rev: env.Bi.Rev.Base().FullState(node),
	}
	if state.Empty() {
		return Extension{}, false
	}
	right := rk.extendRight(env, r, seed.ReadOff, node, seed.Pos.Off, state, 0, p, readIdx)
	left := refExtendLeft(env, r, seed.ReadOff-1, node, seed.Pos.Off-1, state, p.MaxMismatches-len(right.mism), p, readIdx)
	ext := Extension{
		StartPos:  left.pos,
		ReadStart: left.readPos,
		ReadEnd:   right.readPos,
		Rev:       seed.Rev,
	}
	if n := len(left.mism) + len(right.mism); n > 0 {
		mism := make([]int32, 0, n)
		for i := len(left.mism) - 1; i >= 0; i-- {
			mism = append(mism, left.mism[i])
		}
		ext.Mismatches = append(mism, right.mism...)
	}
	path := make([]vgraph.NodeID, 0, len(left.path)+len(right.path))
	for i := len(left.path) - 1; i >= 0; i-- {
		path = append(path, left.path[i])
	}
	ext.Path = append(path, right.path...)
	matched := ext.Len() - int32(len(ext.Mismatches))
	ext.Score = matched*p.MatchScore - int32(len(ext.Mismatches))*p.MismatchPenalty
	if left.reached {
		ext.Score += p.FullLengthBonus
	}
	if right.reached {
		ext.Score += p.FullLengthBonus
	}
	return ext, true
}

func (rk *refKernel) extendRight(env *Env, r dna.Sequence, i int32, node vgraph.NodeID, off int32, state gbwt.BiState, mismUsed int, p Params, readIdx int) refWalk {
	label := env.Graph.Seq(node)
	mism := make([]int32, 0, p.MaxMismatches-mismUsed)
	if env.Probe != nil {
		n := int32(len(label)) - off
		if rem := int32(len(r)) - i; rem < n {
			n = rem
		}
		if n > 0 {
			env.Probe.Access(counters.NodeSeqAddr(uint32(node), off), int(n))
			env.Probe.Access(counters.ReadAddr(readIdx, i), int(n))
			env.Probe.Instr(int64(n) * 6)
		}
	}
	for int(off) < len(label) && int(i) < len(r) {
		if label[off] != r[i] {
			if mismUsed+len(mism)+1 > p.MaxMismatches {
				return refWalk{readPos: i, mism: mism, path: []vgraph.NodeID{node}}
			}
			mism = append(mism, i)
		}
		off++
		i++
	}
	if int(i) >= len(r) {
		return refWalk{readPos: i, mism: mism, path: []vgraph.NodeID{node}, reached: true}
	}
	rec := env.Bi.Fwd.Record(state.Fwd.Node)
	if env.Probe != nil {
		env.Probe.Access(counters.RecordAddr(uint32(state.Fwd.Node)), counters.RecordStride)
		env.Probe.Instr(20)
	}
	var best refWalk
	haveBest := false
	if rec != nil {
		for _, e := range rec.Edges {
			if e.To == gbwt.Endmarker {
				continue
			}
			next := gbwt.ExtendRightWith(env.Bi, state, e.To)
			if next.Empty() {
				continue
			}
			sub := rk.extendRight(env, r, i, e.To, 0, next, mismUsed+len(mism), p, readIdx)
			if !haveBest || rk.betterRight(sub, best, p) {
				best = sub
				haveBest = true
			}
		}
	}
	if !haveBest {
		return refWalk{readPos: i, mism: mism, path: []vgraph.NodeID{node}}
	}
	return refWalk{
		readPos: best.readPos,
		mism:    append(mism, best.mism...),
		path:    append([]vgraph.NodeID{node}, best.path...),
		reached: best.reached,
	}
}

func (rk *refKernel) betterRight(a, b refWalk, p Params) bool {
	sa := score1(a.readPos, int32(len(a.mism)), p)
	sb := score1(b.readPos, int32(len(b.mism)), p)
	if sa != sb {
		return sa > sb
	}
	if a.readPos != b.readPos {
		return a.readPos > b.readPos
	}
	if len(a.path) > 0 && len(b.path) > 0 && a.path[0] != b.path[0] {
		rk.pathTies++
		return a.path[0] < b.path[0]
	}
	return false
}

func refExtendLeft(env *Env, r dna.Sequence, i int32, node vgraph.NodeID, off int32, state gbwt.BiState, mismBudget int, p Params, readIdx int) refWalk {
	g := env.Graph
	var mism []int32
	var path []vgraph.NodeID
	curNode, curOff := node, off
	for {
		label := g.Seq(curNode)
		if env.Probe != nil && curOff >= 0 && i >= 0 {
			n := curOff + 1
			if i+1 < n {
				n = i + 1
			}
			if n > 0 {
				env.Probe.Access(counters.NodeSeqAddr(uint32(curNode), curOff-n+1), int(n))
				env.Probe.Access(counters.ReadAddr(readIdx, i-n+1), int(n))
				env.Probe.Instr(int64(n) * 6)
			}
		}
		for curOff >= 0 && i >= 0 {
			if label[curOff] != r[i] {
				if len(mism)+1 > mismBudget {
					return refWalk{readPos: i + 1, mism: mism, path: path, pos: vgraph.Position{Node: curNode, Off: curOff + 1}}
				}
				mism = append(mism, i)
			}
			curOff--
			i--
		}
		if i < 0 {
			return refWalk{mism: mism, path: path, pos: vgraph.Position{Node: curNode, Off: curOff + 1}, reached: true}
		}
		pred, next := bestPredecessor(env, r, i, state, p)
		if pred == vgraph.Invalid {
			return refWalk{readPos: i + 1, mism: mism, path: path, pos: vgraph.Position{Node: curNode, Off: 0}}
		}
		path = append(path, pred)
		state = next
		curNode = pred
		curOff = int32(g.SeqLen(pred)) - 1
	}
}

// seedExtension runs the kernel's extendSeed and assembles the Extension
// the way ProcessUntilThresholdC copies survivors out.
func seedExtension(env *Env, sc *Scratch, r dna.Sequence, seed seeds.Seed, p Params) (Extension, bool) {
	ext, ok := extendSeed(env, sc, r, seed, p, 0)
	if !ok {
		return ext, false
	}
	for i := len(sc.leftPath) - 1; i >= 0; i-- {
		ext.Path = append(ext.Path, sc.leftPath[i])
	}
	ext.Path = append(ext.Path, sc.best.path...)
	for i := len(sc.leftMism) - 1; i >= 0; i-- {
		ext.Mismatches = append(ext.Mismatches, sc.leftMism[i])
	}
	ext.Mismatches = append(ext.Mismatches, sc.best.mism...)
	return ext, true
}

// eventLog records, in order, every probe call and every GBWT Record
// lookup a kernel makes.
type eventLog struct{ events []string }

func (l *eventLog) Instr(n int64) { l.events = append(l.events, "I"+strconv.FormatInt(n, 10)) }
func (l *eventLog) Access(addr uint64, size int) {
	l.events = append(l.events, "A"+strconv.FormatUint(addr, 16)+"/"+strconv.Itoa(size))
}

// loggedReader wraps a GBWT reader, logging each Record lookup.
type loggedReader struct {
	gbwt.Reader
	dir string
	log *eventLog
}

func (r loggedReader) Record(v gbwt.NodeID) *gbwt.DecodedRecord {
	r.log.events = append(r.log.events, r.dir+strconv.FormatUint(uint64(v), 10))
	return r.Reader.Record(v)
}

// loggedEnv gives a kernel a fresh cached reader pair and probe, both
// logging into one event stream.
func (f *fixture) loggedEnv() (*Env, *eventLog) {
	log := &eventLog{}
	bi := f.bi.NewBiReader(64)
	return &Env{
		Graph: f.pg.Graph,
		Bi:    gbwt.BiReader{Fwd: loggedReader{bi.Fwd, "F", log}, Rev: loggedReader{bi.Rev, "R", log}},
		Probe: log,
	}, log
}

// TestKernelMatchesReference checks the iterative kernel against the
// recursive reference: deeply equal extensions (Path, Mismatches, Score,
// StartPos and all), the same probe calls and Record lookups in the same
// order, per read and per seed at every mismatch budget 0–4.
func TestKernelMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		f    *fixture
	}{
		{"fixture1", buildFixture(t, 1, 4000, 6)},
		{"fixture4", buildFixture(t, 4, 5000, 8)},
		{"fixture11", buildFixture(t, 11, 8000, 8)},
		{"bubble-dense", buildBubbleFixture(t, 21, 3000, 12)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f
			rk := &refKernel{}
			sc := new(Scratch)
			rng := rand.New(rand.NewSource(99))
			reads, extsSeen := 0, 0
			for trial := 0; trial < 60; trial++ {
				hap := rng.Intn(len(f.seqs))
				start := rng.Intn(len(f.seqs[hap]) - 130)
				seq := f.seqs[hap][start : start+120].Clone()
				for e := rng.Intn(7); e > 0; e-- {
					i := rng.Intn(len(seq))
					seq[i] = (seq[i] + 1 + dna.Base(rng.Intn(3))) & 3
				}
				if rng.Intn(2) == 1 {
					seq = seq.RevComp()
				}
				read := &dna.Read{Name: "o", Seq: seq, Fragment: -1}
				ss, err := seeds.Extract(f.minIx, read)
				if err != nil {
					t.Fatal(err)
				}
				cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
				reads++
				for mm := 0; mm <= 4; mm++ {
					p := Params{MaxMismatches: mm}
					refEnv, refLog := f.loggedEnv()
					want := rk.process(refEnv, read, ss, cls, p, 0)
					env, log := f.loggedEnv()
					env.Scratch = sc
					got := ProcessUntilThresholdC(env, read, ss, cls, p, 0)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d budget %d: extensions differ\n got %+v\nwant %+v", trial, mm, got, want)
					}
					if !slices.Equal(log.events, refLog.events) {
						t.Fatalf("trial %d budget %d: probe/Record sequence differs (%d vs %d events)", trial, mm, len(log.events), len(refLog.events))
					}
					extsSeen += len(got)

					// Seed level at the exact budget: ProcessUntilThresholdC
					// normalizes a zero budget to the default.
					pn := p.normalize()
					pn.MaxMismatches = mm
					for _, seed := range ss {
						r := read.Seq
						if seed.Rev {
							r = read.Seq.RevComp()
						}
						we, wok := rk.extendSeed(refEnv, r, seed, pn, 0)
						ge, gok := seedExtension(env, sc, r, seed, pn)
						if wok != gok || !reflect.DeepEqual(ge, we) {
							t.Fatalf("trial %d budget %d seed %+v: got %+v (%v), want %+v (%v)", trial, mm, seed, ge, gok, we, wok)
						}
					}
				}
			}
			if extsSeen == 0 {
				t.Fatal("no extensions produced")
			}
			t.Logf("%d reads, %d extensions, %d right-walk ties decided by path", reads, extsSeen, rk.pathTies)
			if tc.name == "bubble-dense" && rk.pathTies == 0 {
				t.Fatal("bubble-dense reads never reached a score-and-reach tie")
			}
		})
	}
}

// TestProcessUntilThresholdCAllocs locks in the allocation budget: with a
// warm Scratch (and a warm GBWT cache) a read costs at most the returned
// slice plus a Path and a Mismatches array per extension, however many
// nodes its walks visit.
func TestProcessUntilThresholdCAllocs(t *testing.T) {
	for _, f := range []*fixture{buildFixture(t, 11, 8000, 8), buildBubbleFixture(t, 21, 3000, 12)} {
		env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(4096), Scratch: new(Scratch)}
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 30; trial++ {
			hap := rng.Intn(len(f.seqs))
			start := rng.Intn(len(f.seqs[hap]) - 130)
			seq := f.seqs[hap][start : start+120].Clone()
			for e := rng.Intn(7); e > 0; e-- {
				i := rng.Intn(len(seq))
				seq[i] = (seq[i] + 1 + dna.Base(rng.Intn(3))) & 3
			}
			if rng.Intn(2) == 1 {
				seq = seq.RevComp()
			}
			read := &dna.Read{Name: "a", Seq: seq, Fragment: -1}
			ss, err := seeds.Extract(f.minIx, read)
			if err != nil {
				t.Fatal(err)
			}
			cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
			var out []Extension
			allocs := testing.AllocsPerRun(5, func() {
				out = ProcessUntilThresholdC(env, read, ss, cls, Params{}, 0)
			})
			if budget := float64(1 + 2*len(out)); allocs > budget {
				t.Errorf("trial %d: %.1f allocations for %d extensions, budget %.0f", trial, allocs, len(out), budget)
			}
		}
	}
}

// TestReturnedExtensionsOwned checks that results survive the Scratch's
// reuse and that appending to one extension's slices leaves its
// neighbours intact.
func TestReturnedExtensionsOwned(t *testing.T) {
	f := buildBubbleFixture(t, 21, 3000, 12)
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256), Scratch: new(Scratch)}
	rng := rand.New(rand.NewSource(17))
	type kept struct{ got, want []Extension }
	var all []kept
	for trial := 0; trial < 20; trial++ {
		hap := rng.Intn(len(f.seqs))
		start := rng.Intn(len(f.seqs[hap]) - 130)
		seq := f.seqs[hap][start : start+120].Clone()
		seq[rng.Intn(len(seq))] ^= 1
		read := &dna.Read{Name: "k", Seq: seq, Fragment: -1}
		ss, err := seeds.Extract(f.minIx, read)
		if err != nil {
			t.Fatal(err)
		}
		cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
		got := ProcessUntilThresholdC(env, read, ss, cls, Params{}, 0)
		want := ProcessUntilThresholdC(&Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}, read, ss, cls, Params{}, 0)
		all = append(all, kept{got, want})
	}
	for i, k := range all {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Fatalf("read %d: extensions changed after later calls on the same Scratch", i)
		}
		for j := range k.got {
			k.got[j].Path = append(k.got[j].Path, 0)
			k.got[j].Mismatches = append(k.got[j].Mismatches, -1)
		}
		for j := range k.got {
			k.got[j].Path = k.got[j].Path[:len(k.got[j].Path)-1]
			k.got[j].Mismatches = k.got[j].Mismatches[:len(k.got[j].Mismatches)-1]
			if len(k.got[j].Mismatches) == 0 {
				k.got[j].Mismatches = nil
			}
		}
		if !reflect.DeepEqual(k.got, k.want) {
			t.Fatalf("read %d: appending to one extension's slices changed another", i)
		}
	}
}

func BenchmarkProcessUntilThresholdC(b *testing.B) {
	f := buildFixture(b, 11, 8000, 8)
	rng := rand.New(rand.NewSource(12))
	type work struct {
		read *dna.Read
		ss   []seeds.Seed
		cls  []cluster.Cluster
	}
	var items []work
	for i := 0; i < 50; i++ {
		hap := rng.Intn(len(f.seqs))
		start := rng.Intn(len(f.seqs[hap]) - 130)
		read := &dna.Read{Name: "b", Seq: f.seqs[hap][start : start+120].Clone(), Fragment: -1}
		ss, err := seeds.Extract(f.minIx, read)
		if err != nil {
			b.Fatal(err)
		}
		cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
		items = append(items, work{read, ss, cls})
	}
	// scratch is the mapper's configuration: one Scratch reused across
	// reads; nil is the Env{Graph, Bi} form, a fresh one per call.
	for _, bc := range []struct {
		name    string
		scratch *Scratch
	}{{"scratch", new(Scratch)}, {"nil", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256), Scratch: bc.scratch}
			for _, w := range items {
				ProcessUntilThresholdC(env, w.read, w.ss, w.cls, Params{}, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := items[i%len(items)]
				ProcessUntilThresholdC(env, w.read, w.ss, w.cls, Params{}, 0)
			}
		})
	}
}
