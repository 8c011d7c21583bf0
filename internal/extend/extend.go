// Package extend implements process_until_threshold_c, the most expensive
// critical function in Giraffe's mapping pipeline (up to 52% of computation
// time in the paper's characterisation, §IV-A): clusters are processed in
// descending score order until a score-fraction threshold stops the walk,
// and each processed cluster's seeds are extended into maximal gapless local
// alignments by walking the variation graph along GBWT haplotypes and
// comparing graph bases against the read — the seed-and-extend core where
// the actual read-to-pangenome comparison happens.
//
// Both the parent emulator (package giraffe) and the proxy (package core)
// call this same kernel; the paper's proxy was built by extracting exactly
// these functions, which is why its outputs match Giraffe's bit-for-bit.
package extend

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/seeds"
	"repro/internal/vgraph"
)

// Params tunes the extension kernel. Zero values are replaced by defaults
// mirroring Giraffe's short-read configuration at this scale.
type Params struct {
	// MaxMismatches bounds mismatches per extension (Giraffe default 4).
	MaxMismatches int
	// ScoreFraction is the threshold c: clusters scoring below
	// ScoreFraction × best-cluster-score are not processed.
	ScoreFraction float64
	// MinClusters are always processed regardless of the threshold.
	MinClusters int
	// MaxClusters caps the clusters processed per read.
	MaxClusters int
	// MaxSeedsPerCluster caps extension starts per cluster.
	MaxSeedsPerCluster int
	// Scoring constants: match bonus, mismatch penalty (positive), and the
	// bonus awarded per read end reached.
	MatchScore      int32
	MismatchPenalty int32
	FullLengthBonus int32
}

// DefaultParams returns the kernel defaults.
func DefaultParams() Params {
	return Params{
		MaxMismatches:      4,
		ScoreFraction:      0.6,
		MinClusters:        2,
		MaxClusters:        16,
		MaxSeedsPerCluster: 4,
		MatchScore:         1,
		MismatchPenalty:    4,
		FullLengthBonus:    5,
	}
}

// normalize fills zero fields with defaults.
func (p Params) normalize() Params {
	d := DefaultParams()
	if p.MaxMismatches == 0 {
		p.MaxMismatches = d.MaxMismatches
	}
	if p.ScoreFraction == 0 {
		p.ScoreFraction = d.ScoreFraction
	}
	if p.MinClusters == 0 {
		p.MinClusters = d.MinClusters
	}
	if p.MaxClusters == 0 {
		p.MaxClusters = d.MaxClusters
	}
	if p.MaxSeedsPerCluster == 0 {
		p.MaxSeedsPerCluster = d.MaxSeedsPerCluster
	}
	if p.MatchScore == 0 {
		p.MatchScore = d.MatchScore
	}
	if p.MismatchPenalty == 0 {
		p.MismatchPenalty = d.MismatchPenalty
	}
	if p.FullLengthBonus == 0 {
		p.FullLengthBonus = d.FullLengthBonus
	}
	return p
}

// Extension is one maximal gapless local alignment: the proxy's raw output
// (§V: "offsets and scores of each match").
type Extension struct {
	// StartPos is the graph position aligned to the oriented read's
	// ReadStart base.
	StartPos vgraph.Position
	// Path is the node walk the extension covers, in order.
	Path []vgraph.NodeID
	// ReadStart/ReadEnd delimit the matched interval of the oriented read
	// (the reverse complement when Rev).
	ReadStart, ReadEnd int32
	// Mismatches lists the oriented-read offsets that mismatch the graph.
	Mismatches []int32
	// Score under the kernel's scoring constants.
	Score int32
	// Rev marks reverse-strand mappings.
	Rev bool
}

// Len returns the matched read length.
func (e *Extension) Len() int32 { return e.ReadEnd - e.ReadStart }

// Key returns a canonical identity string (used for deduplication and
// output validation).
func (e *Extension) Key() string {
	strand := '+'
	if e.Rev {
		strand = '-'
	}
	return fmt.Sprintf("%d:%d%c:%d-%d", e.StartPos.Node, e.StartPos.Off, strand, e.ReadStart, e.ReadEnd)
}

// Env bundles the immutable structures the kernel walks plus the per-worker
// bidirectional GBWT readers and instrumentation probe (both may differ
// across workers). The bidirectional readers let both extension directions
// stay haplotype-constrained, as Giraffe's extender does (§IV-B: "Giraffe
// will try to extend seed alignments in both directions").
type Env struct {
	Graph *vgraph.Graph
	Bi    gbwt.BiReader
	Probe counters.Probe // nil disables accounting
	// Scratch is the kernel's reusable working memory; nil means a fresh
	// one per call. Like Bi, it belongs to one goroutine at a time.
	Scratch *Scratch
}

// Scratch is the extension kernel's reusable working memory: the dedup
// keys, the candidate list and the survivors' concatenated paths and
// mismatches, pickSeeds' index buffer, the reverse-complemented read, the
// right walk's frame, path and mismatch stacks with its best completion,
// and the left walk's buffers. Reusing one across calls makes the kernel
// allocate only the Extensions it returns, which never alias it. A Scratch
// is not safe for concurrent use.
type Scratch struct {
	keys  []extKey
	cands []candidate
	picks []int
	rev   dna.Sequence    // the read's reverse complement
	paths []vgraph.NodeID // survivors' paths, concatenated in read order
	mism  []int32         // survivors' mismatches, concatenated

	frames   []rightFrame
	walkPath []vgraph.NodeID // right walk: nodes from the seed to the current node
	walkMism []int32         // right walk: mismatches along walkPath
	best     rightBest

	leftPath []vgraph.NodeID // left walk: nodes before the seed, right to left
	leftMism []int32         // left walk: mismatches, right to left
}

// extKey is the comparable identity used to deduplicate extensions on the
// hot path. Extension.Key() builds the same identity as a string, which
// costs one fmt.Sprintf per candidate; it is kept for cold-path validation
// and debugging output only.
type extKey struct {
	node               vgraph.NodeID
	off                int32
	readStart, readEnd int32
	rev                bool
}

// candidate is a deduplicated extension whose Path and Mismatches are still
// ranges of Scratch.paths and Scratch.mism.
type candidate struct {
	ext            Extension
	pathLo, pathHi int32
	mismLo, mismHi int32
}

// ProcessUntilThresholdC runs the extension stage for one read: clusters
// (score-descending, as produced by cluster.ClusterSeeds) are processed
// until the score threshold or the cluster cap stops the loop; every
// processed cluster's best seeds are extended and the deduplicated
// extensions are returned sorted by descending score (ties broken by
// position for determinism). readIdx identifies the read for the probe's
// address map.
//
// The result is owned by the caller: with a warm env.Scratch the call
// allocates only the returned slice and its survivors' Path and Mismatches
// backing arrays.
//
//minigiraffe:hot
func ProcessUntilThresholdC(env *Env, read *dna.Read, ss []seeds.Seed, clusters []cluster.Cluster, p Params, readIdx int) []Extension {
	p = p.normalize()
	if len(clusters) == 0 {
		return nil
	}
	sc := env.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	best := clusters[0].Score
	var fwd, rev dna.Sequence
	fwd = read.Seq
	// Deduplicate via a linear scan over comparable keys: the candidate set
	// is capped at MaxClusters×MaxSeedsPerCluster (64 at the defaults), so a
	// scan beats hashing and keeps this function map- and Sprintf-free.
	keys := sc.keys[:0]
	cands := sc.cands[:0]
	paths := sc.paths[:0]
	mism := sc.mism[:0]

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
		sc.picks = pickSeeds(sc.picks, ss, cl.SeedIdx, p.MaxSeedsPerCluster)
		for _, si := range sc.picks {
			seed := ss[si]
			oriented := fwd
			if seed.Rev {
				if rev == nil {
					rev = fwd.AppendRevComp(sc.rev[:0])
					sc.rev = rev
					if env.Probe != nil {
						env.Probe.Instr(int64(len(fwd)) * 2)
					}
				}
				oriented = rev
			}
			ext, ok := extendSeed(env, sc, oriented, seed, p, readIdx)
			if !ok {
				continue
			}
			key := extKey{
				node:      ext.StartPos.Node,
				off:       ext.StartPos.Off,
				readStart: ext.ReadStart,
				readEnd:   ext.ReadEnd,
				rev:       ext.Rev,
			}
			dup := false
			for _, k := range keys {
				if k == key {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			keys = append(keys, key)
			// Survivor: append its path and mismatches in read order. The
			// left walk collected its part right to left.
			c := candidate{ext: ext, pathLo: int32(len(paths)), mismLo: int32(len(mism))}
			for i := len(sc.leftPath) - 1; i >= 0; i-- {
				paths = append(paths, sc.leftPath[i])
			}
			paths = append(paths, sc.best.path...)
			for i := len(sc.leftMism) - 1; i >= 0; i-- {
				mism = append(mism, sc.leftMism[i])
			}
			mism = append(mism, sc.best.mism...)
			c.pathHi, c.mismHi = int32(len(paths)), int32(len(mism))
			cands = append(cands, c)
		}
	}
	sc.keys, sc.cands, sc.paths, sc.mism = keys, cands, paths, mism

	// Copy the survivors out: one backing array each for every path and
	// every mismatch list, capped per extension so a caller's append can
	// never run into its neighbour's.
	out := make([]Extension, len(cands))
	outPaths := make([]vgraph.NodeID, len(paths))
	copy(outPaths, paths)
	var outMism []int32
	if len(mism) > 0 {
		outMism = make([]int32, len(mism))
		copy(outMism, mism)
	}
	for j, c := range cands {
		e := c.ext
		e.Path = outPaths[c.pathLo:c.pathHi:c.pathHi]
		if c.mismHi > c.mismLo {
			e.Mismatches = outMism[c.mismLo:c.mismHi:c.mismHi]
		}
		out[j] = e
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

// pickSeeds selects up to max seed indices from the cluster, preferring
// higher scores then lower read offsets (deterministic). The selection is
// built in dst's backing array.
func pickSeeds(dst []int, ss []seeds.Seed, idxs []int, max int) []int {
	sorted := append(dst[:0], idxs...)
	slices.SortFunc(sorted, func(a, b int) int {
		sa, sb := ss[a], ss[b]
		if sa.Score != sb.Score {
			return cmp.Compare(sb.Score, sa.Score)
		}
		if sa.ReadOff != sb.ReadOff {
			return cmp.Compare(sa.ReadOff, sb.ReadOff)
		}
		return cmp.Compare(a, b)
	})
	if len(sorted) > max {
		sorted = sorted[:max]
	}
	return sorted
}

// walkResult carries one direction's outcome; the walk's nodes and
// mismatches stay in the Scratch.
type walkResult struct {
	readPos int32           // exclusive end (right) / inclusive start (left)
	pos     vgraph.Position // final boundary position (left only)
	reached bool            // read end/start reached
}

// extendSeed extends a single seed bidirectionally. Returns false if the
// anchor itself is invalid (position outside the node). The extension's
// Path and Mismatches are left unset: its pieces are sc.leftPath/leftMism
// (right to left, before the seed) and sc.best.path/mism (from the seed
// node on).
//
//minigiraffe:hot
func extendSeed(env *Env, sc *Scratch, r dna.Sequence, seed seeds.Seed, p Params, readIdx int) (Extension, bool) {
	g := env.Graph
	node := seed.Pos.Node
	if !g.Has(node) || int(seed.Pos.Off) >= g.SeqLen(node) {
		return Extension{}, false
	}
	if int(seed.ReadOff) >= len(r) || seed.ReadOff < 0 {
		return Extension{}, false
	}

	// The seed's single-node match anchors a bidirectional search state.
	state := gbwt.BiState{
		Fwd: env.Bi.Fwd.Base().FullState(node),
		Rev: env.Bi.Rev.Base().FullState(node),
	}
	if state.Empty() {
		return Extension{}, false
	}
	// Right: from the anchor base forward, haplotype-constrained.
	right := extendRight(env, sc, r, seed.ReadOff, node, seed.Pos.Off, state, p, readIdx)
	rightMism := len(sc.best.mism)

	// Left: from the base before the anchor backward, haplotype-constrained
	// through the reverse index. The left walk restricts the same seed
	// state (its haplotypes are a superset of the right walk's survivors,
	// which is what Giraffe's extender tracks per direction).
	left := extendLeft(env, sc, r, seed.ReadOff-1, node, seed.Pos.Off-1, state, p.MaxMismatches-rightMism, p, readIdx)

	ext := Extension{
		StartPos:  left.pos,
		ReadStart: left.readPos,
		ReadEnd:   right.readPos,
		Rev:       seed.Rev,
	}
	nMism := int32(len(sc.leftMism) + rightMism)
	matched := ext.Len() - nMism
	ext.Score = matched*p.MatchScore - nMism*p.MismatchPenalty
	if left.reached {
		ext.Score += p.FullLengthBonus
	}
	if right.reached {
		ext.Score += p.FullLengthBonus
	}
	return ext, true
}

// rightFrame is one node of the right walk's depth-first search whose
// label has been matched to its end: the successor edges still to try and
// where the walk stood when it left the node.
type rightFrame struct {
	rec     *gbwt.DecodedRecord
	state   gbwt.BiState
	next    int   // next index into rec.Edges
	i       int32 // read position at the node's end
	depth   int   // len(path) with this node on it
	nMism   int   // len(mism) at the node's end
	entered bool  // some successor was walked: not a dead end
}

// rightBest is the best right-walk completion seen so far.
type rightBest struct {
	path         []vgraph.NodeID
	mism         []int32
	score, reach int32
	reached      bool
	have         bool
}

// offer records the completion (path, mism, reach) if it beats the current
// best. The order is score descending, then reach descending, then path
// ascending lexicographically — the recursive walk's per-level tie-break
// (score, reach, first node of the branch) applied globally: two
// completions share every node above their divergence and differ at it, so
// comparing whole paths decides exactly where the recursion would have.
// Scores count mismatches from the seed on; the recursion counted them
// from the branch point, which shifts both sides equally.
func (b *rightBest) offer(path []vgraph.NodeID, mism []int32, reach int32, reached bool, p Params) {
	s := score1(reach, int32(len(mism)), p)
	if b.have {
		switch {
		case s != b.score:
			if s < b.score {
				return
			}
		case reach != b.reach:
			if reach < b.reach {
				return
			}
		case slices.Compare(path, b.path) >= 0:
			return
		}
	}
	b.path = append(b.path[:0], path...)
	b.mism = append(b.mism[:0], mism...)
	b.score, b.reach, b.reached, b.have = s, reach, reached, true
}

// extendRight walks the graph forward from (node, off) matching r[i:],
// following GBWT haplotypes, branching at node boundaries and keeping the
// best-scoring completion in sc.best (its path starts with the starting
// node). The search is an explicit depth-first walk over sc's frame stack
// and one shared path and mismatch stack; nodes, Record lookups and probe
// accounting happen in the same order as a recursive walk's, successors in
// edge order.
//
//minigiraffe:hot
func extendRight(env *Env, sc *Scratch, r dna.Sequence, i int32, node vgraph.NodeID, off int32, state gbwt.BiState, p Params, readIdx int) walkResult {
	g := env.Graph
	frames := sc.frames[:0]
	path := sc.walkPath[:0]
	mism := sc.walkMism[:0]
	b := &sc.best
	b.have = false
	for {
		// Enter node at (off, i): match its label against the read.
		path = append(path, node)
		label := g.Seq(node)
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
		overBudget := false
		for int(off) < len(label) && int(i) < len(r) {
			if label[off] != r[i] {
				if len(mism)+1 > p.MaxMismatches {
					// Stop before consuming the over-budget mismatch.
					overBudget = true
					break
				}
				mism = append(mism, i)
			}
			off++
			i++
		}
		switch {
		case overBudget:
			b.offer(path, mism, i, false, p)
		case int(i) >= len(r):
			b.offer(path, mism, i, true, p)
		default:
			// Node exhausted: branch along haplotype-consistent successors.
			rec := env.Bi.Fwd.Record(state.Fwd.Node)
			if env.Probe != nil {
				env.Probe.Access(counters.RecordAddr(uint32(state.Fwd.Node)), counters.RecordStride)
				env.Probe.Instr(20)
			}
			frames = append(frames, rightFrame{rec: rec, state: state, i: i, depth: len(path), nMism: len(mism)})
		}

		// Find the next successor to enter, backtracking through finished
		// frames; a frame that entered none is a dead end, where the
		// extension stops at the node boundary.
		entered := false
		for !entered && len(frames) > 0 {
			f := &frames[len(frames)-1]
			path, mism = path[:f.depth], mism[:f.nMism]
			for f.rec != nil && f.next < len(f.rec.Edges) {
				to := f.rec.Edges[f.next].To
				f.next++
				if to == gbwt.Endmarker {
					continue
				}
				next := gbwt.ExtendRightWith(env.Bi, f.state, to)
				if next.Empty() {
					continue
				}
				node, off, i, state = to, 0, f.i, next
				f.entered, entered = true, true
				break
			}
			if !entered {
				if !f.entered {
					b.offer(path, mism, f.i, false, p)
				}
				frames = frames[:len(frames)-1]
			}
		}
		if !entered {
			break
		}
	}
	sc.frames, sc.walkPath, sc.walkMism = frames, path, mism
	return walkResult{readPos: b.reach, reached: b.reached}
}

func score1(reach, mism int32, p Params) int32 {
	return (reach-mism)*p.MatchScore - mism*p.MismatchPenalty
}

// extendLeft walks the graph backward from (node, off) matching r[..i]
// leftward. Predecessor steps are fully haplotype-constrained: the
// bidirectional state is extended left through the reverse index, so only
// walks some indexed haplotype actually takes survive. The returned pos is
// the graph position of the leftmost matched base; readPos is the inclusive
// read start. The walk leaves in sc.leftPath the nodes *before* the seed
// node and in sc.leftMism its mismatches, both in walk (right-to-left)
// order.
//
//minigiraffe:hot
func extendLeft(env *Env, sc *Scratch, r dna.Sequence, i int32, node vgraph.NodeID, off int32, state gbwt.BiState, mismBudget int, p Params, readIdx int) walkResult {
	g := env.Graph
	mism := sc.leftMism[:0]
	path := sc.leftPath[:0]
	curNode, curOff := node, off
	var res walkResult
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
		overBudget := false
		for curOff >= 0 && i >= 0 {
			if label[curOff] != r[i] {
				if len(mism)+1 > mismBudget {
					overBudget = true
					break
				}
				mism = append(mism, i)
			}
			curOff--
			i--
		}
		if overBudget {
			res = walkResult{readPos: i + 1, pos: vgraph.Position{Node: curNode, Off: curOff + 1}}
			break
		}
		if i < 0 {
			res = walkResult{readPos: 0, pos: vgraph.Position{Node: curNode, Off: curOff + 1}, reached: true}
			break
		}
		// Node start reached: step to the best haplotype-consistent
		// predecessor. Greedy: choose the predecessor whose tail matches the
		// read furthest (deterministic by node id on ties).
		pred, next := bestPredecessor(env, r, i, state, p)
		if pred == vgraph.Invalid {
			res = walkResult{readPos: i + 1, pos: vgraph.Position{Node: curNode, Off: 0}}
			break
		}
		path = append(path, pred)
		state = next
		curNode = pred
		curOff = int32(g.SeqLen(pred)) - 1
	}
	sc.leftMism, sc.leftPath = mism, path
	return res
}

// bestPredecessor returns the haplotype-consistent predecessor of the
// state's first node whose label tail best matches the read ending at i,
// together with the left-extended state, or Invalid when no haplotype
// continues leftward.
//
//minigiraffe:hot
func bestPredecessor(env *Env, r dna.Sequence, i int32, state gbwt.BiState, p Params) (vgraph.NodeID, gbwt.BiState) {
	g := env.Graph
	rec := env.Bi.Rev.Record(state.Rev.Node)
	if env.Probe != nil {
		env.Probe.Access(counters.RecordRevAddr(uint32(state.Rev.Node)), counters.RecordStride)
		env.Probe.Instr(20)
	}
	if rec == nil {
		return vgraph.Invalid, state
	}
	best := vgraph.Invalid
	var bestState gbwt.BiState
	bestMatch := int32(-1)
	for _, e := range rec.Edges {
		u := e.To
		if u == gbwt.Endmarker {
			continue
		}
		next := gbwt.ExtendLeftWith(env.Bi, state, u)
		if next.Empty() {
			continue
		}
		// Count matching tail bases (up to 8) for the greedy choice.
		label := g.Seq(u)
		m := int32(0)
		ri, li := i, int32(len(label))-1
		for m < 8 && ri >= 0 && li >= 0 && label[li] == r[ri] {
			m++
			ri--
			li--
		}
		if env.Probe != nil {
			env.Probe.Instr(int64(m+1) * 6)
		}
		if m > bestMatch {
			bestMatch = m
			best = u
			bestState = next
		}
	}
	return best, bestState
}
