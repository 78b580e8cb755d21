package phy

import (
	"math"
	"sort"

	"fourbit/internal/sim"
)

// This file implements the spatial audible-set index: the machinery that
// lets a channel over thousands of nodes store and visit only the links
// that can physically matter, instead of dense n×n matrices.
//
// The representation split is by network size (Params.SparseAboveN): small
// networks — every existing testbed and golden — keep the dense arrays and
// are bit-for-bit untouched; large networks use a CSR adjacency holding
// only links whose drawn static gain clears an audibility floor
// (Params.AudibleFloorDB). The floor is chosen so that a culled link could
// never be detected by a receiver, never contribute interference, and a
// fortiori never decode a frame — the medium already drops sub-detection
// signals before any reception draw, so culling them earlier is
// trajectory-invisible.
//
// Exactness contract (pinned by the differential tests in sparse_test.go
// and internal/scenario): a sparse channel is a bit-identical drop-in for
// the dense one on the same topology and seeds. Two properties make that
// hold by construction rather than approximately:
//
//  1. Random-stream alignment. The per-seed constructor draws the
//     shadowing deviate for EVERY unordered pair in the dense order
//     (i ascending, j ascending), whether or not the pair is stored, so
//     the "phy/static" stream is consumed identically. Fading state is
//     allocated per stored pair and sampled lazily exactly where the dense
//     path would sample it — culled pairs are never queried on either
//     path, so the "phy/fade" stream aligns too.
//
//  2. Exact audibility, not radius audibility. A pair is stored iff its
//     actual drawn static gain (either direction) clears the floor — the
//     same per-link criterion the dense medium applies when building its
//     candidate sets. The bucket cutoff radius only decides where the
//     deterministic path loss is precomputed: outside the near set —
//     beyond the radius, or obstructed past the same loss bound (floor
//     slabs, clutter) — a certified lower bound on path loss (monotone in
//     distance, obstruction loss never negative) proves most pairs
//     inaudible without computing their geometry, and the rare draw that
//     lands inside the bound's headroom
//     falls back to the exact per-pair evaluation. No probabilistic
//     culling anywhere: the audible set equals the dense candidate
//     superset exactly, for every seed.

// Geometry describes node placement for channel precomputation without
// materializing n×n matrices: positions for spatial bucketing plus exact
// per-pair distance and static obstruction loss. topo.Topology implements
// it. ExtraLossDB must be non-negative (obstructions only attenuate) and
// Distance monotone under the triangle geometry of Coord — both hold for
// physical placements; the audibility culling's certified bound relies on
// them.
type Geometry interface {
	N() int
	// Coord returns node i's position in meters (z derived from the floor
	// index for multi-storey layouts).
	Coord(i int) (x, y, z float64)
	Distance(i, j int) float64
	ExtraLossDB(i, j int) float64
}

const (
	// audibleMaxTxPowerDBm is the maximum plausible transmit power the
	// audibility filter assumes (radios default to 0 dBm; power sweeps only
	// go down). Shared by the medium's candidate filter and the channel's
	// sparse storage floor so the two stay consistent.
	audibleMaxTxPowerDBm = 1
	// audibleFadeMarginDB is the fade headroom of the candidate filter:
	// generous, so fading can only shrink — never grow — the true receiver
	// set (the pre-existing model assumption, formerly local to NewMedium).
	audibleFadeMarginDB = 14
	// audibleFloorGuardDB separates the sparse storage floor from the
	// medium's candidate threshold so float rounding at the exact boundary
	// can never store a link on one side and admit it on the other.
	audibleFloorGuardDB = 0.5

	// DefaultAudibleFloorDB is the default sparse storage floor:
	// DetectionDBm(−110) − audibleMaxTxPowerDBm − audibleFadeMarginDB −
	// audibleFloorGuardDB. A directed link whose static gain sits below it
	// can never clear the detection floor even at maximum power with the
	// full fade margin: the medium would skip it before any reception
	// draw, so storing it would only spend memory. NewMedium enforces that
	// a sparse channel's floor is compatible with the radio's actual
	// detection threshold.
	DefaultAudibleFloorDB = -(110.0) - audibleMaxTxPowerDBm - audibleFadeMarginDB - audibleFloorGuardDB

	// DefaultSparseAboveN is the node count from which PrecomputeGeo
	// selects the sparse representation when Params.SparseAboveN is zero.
	// Every paper testbed and golden (≤ 94 nodes) stays dense by a wide
	// margin; city-scale presets (2k–10k) go sparse.
	DefaultSparseAboveN = 512

	// cutoffHeadroomSigmas sizes the shadowing/hardware headroom folded
	// into the bucket cutoff radius, in combined (root-sum-square)
	// standard deviations of the shadowing and tx-offset draws. It trades
	// construction work, not correctness: a draw that beats the headroom
	// just pays one exact per-pair path-loss evaluation (see newSparse),
	// so 2σ (~2% fallback rate among beyond-cutoff pairs) keeps the radius
	// — and with it the precomputed near-pair set — small.
	cutoffHeadroomSigmas = 2
)

// audibleFloor resolves the sparse storage floor (0 = default).
func (p Params) audibleFloor() float64 {
	if p.AudibleFloorDB == 0 {
		return DefaultAudibleFloorDB
	}
	return p.AudibleFloorDB
}

// sparseFor reports whether a network of n nodes uses the sparse
// representation under these parameters: n at or above the threshold
// (SparseAboveN; 0 = DefaultSparseAboveN, negative = never) and a
// positive path-loss exponent (the cutoff bound needs loss to grow with
// distance; a degenerate exponent keeps the dense arrays).
func (p Params) sparseFor(n int) bool {
	th := p.SparseAboveN
	if th < 0 {
		return false
	}
	if th == 0 {
		th = DefaultSparseAboveN
	}
	return n >= th && p.PathLossExponent > 0
}

// CutoffRadiusM returns the spatial-bucket cutoff radius in meters: the
// distance at which the deterministic path loss alone puts a link
// cutoffHeadroomSigmas of shadowing-plus-hardware deviation below the
// audibility floor. Pairs beyond it are culled through a certified
// path-loss lower bound instead of per-pair geometry; pairs whose
// shadowing draw defeats the headroom still get the exact evaluation, so
// the radius tunes construction cost only, never the audible set.
func (p Params) CutoffRadiusM() float64 {
	headroom := cutoffHeadroomSigmas * math.Sqrt(p.ShadowSigmaDB*p.ShadowSigmaDB+p.TxVarSigmaDB*p.TxVarSigmaDB)
	pl := -p.audibleFloor() + headroom
	r := math.Pow(10, (pl-p.PathLossRefDB)/(10*p.PathLossExponent))
	if r < 1 {
		r = 1
	}
	return r
}

// PrecomputeGeo builds the immutable half of a channel directly from node
// geometry, selecting the representation by size: dense basePL matrices
// below the sparse threshold (bit-identical to Precompute over
// Topology.Matrices), a bucketed near-pair CSR above it. Like Precompute
// it draws no randomness; the result is a pure function of (g, p) and is
// safe to share read-only across per-seed instantiations.
func PrecomputeGeo(g Geometry, p Params) *ChannelPre {
	precomputeCount.Add(1)
	n := g.N()
	if !p.sparseFor(n) {
		pre := &ChannelPre{p: p, n: n, basePL: make([]float64, n*n), extraDB: make([]float64, n*n)}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := g.Distance(i, j)
				if d < 0.5 {
					d = 0.5
				}
				pre.basePL[i*n+j] = p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(d)
				pre.extraDB[i*n+j] = g.ExtraLossDB(i, j)
			}
		}
		return pre
	}
	return precomputeSparse(g, p)
}

// precomputeSparse builds the bucketed near-pair half: a CSR over
// unordered pairs whose deterministic loss — distance AND obstruction —
// stays within the cutoff bound (row i lists j > i, ascending), holding
// each pair's path loss and obstruction loss. Every pair NOT in the CSR is
// certified to lose at least plAtCutoff deterministically: either its
// distance exceeds the cutoff radius (monotone path loss), or its
// distance-plus-obstruction loss was computed here and found beyond the
// bound. The second class is what keeps multi-storey layouts sparse: floor
// slabs (14 dB each) push most cross-floor pairs past the bound even when
// the floors stack at the same horizontal coordinates, so they cost
// neither CSR memory nor a per-seed geometry evaluation.
func precomputeSparse(g Geometry, p Params) *ChannelPre {
	n := g.N()
	r := p.CutoffRadiusM()
	pre := &ChannelPre{
		p:       p,
		n:       n,
		sparse:  true,
		geo:     g,
		cutoffM: r,
		// Monotone path loss: any pair farther than r (bucket misses are
		// farther by construction) loses at least this much to distance
		// alone. r >= 1 > 0.5, so the short-range clamp cannot undercut it.
		plAtCutoff: p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(r),
		nearOff:    make([]int32, n+1),
	}
	// Grid buckets of side r over the horizontal plane: any pair within r
	// in 3-D is within r in 2-D, hence in the same or an adjacent bucket.
	type cell struct{ cx, cy int32 }
	buckets := make(map[cell][]int32)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x, y, _ := g.Coord(i)
		xs[i], ys[i] = x, y
		c := cell{int32(math.Floor(x / r)), int32(math.Floor(y / r))}
		buckets[c] = append(buckets[c], int32(i))
	}
	// Horizontal prefilter radius: 2-D distance is a lower bound on the
	// 3-D one, so any pair beyond rr in the plane is certainly beyond the
	// cutoff; the tiny relative guard keeps the squared comparison from
	// ever skipping a borderline pair the exact Distance check would keep.
	rr := r * (1 + 1e-12)
	rr *= rr
	var row []int32
	anyExtra := false
	for i := 0; i < n; i++ {
		ci := cell{int32(math.Floor(xs[i] / r)), int32(math.Floor(ys[i] / r))}
		row = row[:0]
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, j := range buckets[cell{ci.cx + dx, ci.cy + dy}] {
					if int(j) <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[int(j)], ys[i]-ys[int(j)]
					if ddx*ddx+ddy*ddy > rr {
						continue
					}
					if g.Distance(i, int(j)) <= r {
						row = append(row, j)
					}
				}
			}
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		for _, j := range row {
			d := g.Distance(i, int(j))
			if d < 0.5 {
				d = 0.5
			}
			base := p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(d)
			e := g.ExtraLossDB(i, int(j))
			if base+e > pre.plAtCutoff {
				// Deterministic loss alone already exceeds the certified
				// bound (obstruction made up what distance did not): the
				// per-seed loop treats the pair exactly like a beyond-cutoff
				// one, so storing it would be pure waste.
				continue
			}
			pre.nearNbr = append(pre.nearNbr, j)
			pre.nearPL = append(pre.nearPL, base)
			pre.nearExtra = append(pre.nearExtra, e)
			if e != 0 {
				anyExtra = true
			}
		}
		pre.nearOff[i+1] = int32(len(pre.nearNbr))
	}
	if !anyExtra {
		// All-zero obstruction loss adds nothing (x + 0.0 is the identity
		// for the positive losses here), so drop the array; the seed loop
		// skips the add, bit-identically.
		pre.nearExtra = nil
	}
	return pre
}

// Sparse reports whether this precompute selected the sparse audible-set
// representation.
func (pre *ChannelPre) Sparse() bool { return pre.sparse }

// audPair is one stored unordered pair discovered during sparse channel
// construction, with both directed static gains.
type audPair struct {
	i, j     int32
	gij, gji float64
}

// newSparse runs the per-seed pair loop for the sparse representation and
// fills the channel's CSR adjacency. It consumes the static stream exactly
// as the dense loop does — one shadowing deviate per unordered pair, i and
// j ascending — and stores a pair iff either directed static gain clears
// the audibility floor: the same criterion, on the same drawn values, that
// the dense medium's candidate filter would apply, so the audible set is
// byte-for-byte the dense candidate superset.
func (pre *ChannelPre) newSparse(c *Channel, static *sim.Rand, txOff []float64) {
	n := pre.n
	p := pre.p
	floor := p.audibleFloor()
	var pairs []audPair
	deg := make([]int32, n)
	for i := 0; i < n; i++ {
		lo, hi := pre.nearOff[i], pre.nearOff[i+1]
		ptr := lo
		ti := txOff[i]
		for j := i + 1; j < n; j++ {
			s := static.Normal(0, p.ShadowSigmaDB)
			var pl float64
			if ptr < hi && int(pre.nearNbr[ptr]) == j {
				// In the near set: precomputed deterministic loss, with
				// the shadowing and obstruction terms added in the dense
				// constructor's exact order.
				pl = pre.nearPL[ptr] + s
				if pre.nearExtra != nil {
					pl += pre.nearExtra[ptr]
				}
				ptr++
			} else {
				// Not in the near set: the certified bound. The pair's
				// deterministic loss (distance plus obstruction) is at
				// least plAtCutoff by the near set's construction, so the
				// actual gain in either direction is at most
				// −(plAtCutoff + s) + max txOff; when even that bound
				// misses the floor the pair is culled exactly. Only a
				// draw inside the headroom pays for the pair's true
				// geometry.
				tmax := ti
				if txOff[j] > tmax {
					tmax = txOff[j]
				}
				if -(pre.plAtCutoff+s)+tmax < floor {
					continue
				}
				d := pre.geo.Distance(i, j)
				if d < 0.5 {
					d = 0.5
				}
				pl = p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(d)
				pl += s
				pl += pre.geo.ExtraLossDB(i, j)
			}
			gij := -pl + ti
			gji := -pl + txOff[j]
			if gij >= floor || gji >= floor {
				pairs = append(pairs, audPair{int32(i), int32(j), gij, gji})
				deg[i]++
				deg[j]++
			}
		}
	}

	// Assemble the symmetric CSR. Pairs were generated with i ascending
	// and j ascending within i, so each row receives its lower neighbors
	// (from earlier outer iterations) and then its upper neighbors in
	// order — rows come out sorted without a sort pass.
	c.sparse = true
	c.adjOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		c.adjOff[i+1] = c.adjOff[i] + deg[i]
	}
	m := len(pairs)
	c.adjNbr = make([]int32, 2*m)
	c.adjGainDB = make([]float64, 2*m)
	c.adjGainLin = make([]float64, 2*m)
	c.adjPair = make([]int32, 2*m)
	cursor := make([]int32, n)
	copy(cursor, c.adjOff[:n])
	for pi := range pairs {
		pr := &pairs[pi]
		si := cursor[pr.i]
		cursor[pr.i]++
		c.adjNbr[si], c.adjGainDB[si], c.adjPair[si] = pr.j, pr.gij, int32(pi)
		sj := cursor[pr.j]
		cursor[pr.j]++
		c.adjNbr[sj], c.adjGainDB[sj], c.adjPair[sj] = pr.i, pr.gji, int32(pi)
	}
	for s, g := range c.adjGainDB {
		c.adjGainLin[s] = DBToLinear(g)
	}
	c.fade = make([]ouState, m)
}

// Sparse reports whether the channel uses the sparse audible-set
// representation.
func (c *Channel) Sparse() bool { return c.sparse }

// AudibleFloorDB returns the resolved static-gain storage floor of the
// sparse representation (also resolved, for symmetry, on dense channels).
func (c *Channel) AudibleFloorDB() float64 { return c.p.audibleFloor() }

// AudibleLinks returns the number of stored directed links: n·(n−1) on the
// dense path, the audible-set size on the sparse one — the denominator of
// the culling ratio city-scale diagnostics report.
func (c *Channel) AudibleLinks() int {
	if !c.sparse {
		return c.n * (c.n - 1)
	}
	return len(c.adjNbr)
}

// slotOf locates rx in tx's CSR row, or −1 when the link is culled.
func (c *Channel) slotOf(tx, rx int) int32 {
	lo, hi := c.adjOff[tx], c.adjOff[tx+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if int(c.adjNbr[mid]) < rx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.adjOff[tx+1] && int(c.adjNbr[lo]) == rx {
		return lo
	}
	return -1
}

// ForEachAudible invokes fn for every receiver j (ascending) the channel's
// representation admits as possibly audible from i, with the directed
// static gain i→j and the adjacency slot (−1 on the dense path, which
// admits everyone). The medium builds its candidate sets through this so
// the two representations filter the identical per-link values.
func (c *Channel) ForEachAudible(i int, fn func(j int, slot int32, gainDB float64)) {
	if !c.sparse {
		row := c.staticGainDB[i*c.n : (i+1)*c.n]
		for j := range row {
			if j == i {
				continue
			}
			fn(j, -1, row[j])
		}
		return
	}
	for s := c.adjOff[i]; s < c.adjOff[i+1]; s++ {
		fn(int(c.adjNbr[s]), s, c.adjGainDB[s])
	}
}

// gainLinSlot is GainLin for a known adjacency slot — the sparse hot path
// the medium uses for candidate receivers, skipping the row search. It
// samples the pair's fading process exactly as GainLin would.
func (c *Channel) gainLinSlot(tx, rx int, slot int32, t sim.Time) float64 {
	g := c.adjGainLin[slot]
	varDB := 0.0
	if c.p.FadeSigmaDB > 0 {
		varDB = c.fade[c.adjPair[slot]].sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.fadeRng, &c.fadeCo)
	}
	if c.linkModCount > 0 {
		if lm := c.modMap[int64(tx)*int64(c.n)+int64(rx)]; lm != nil {
			varDB -= lm.ExtraLossDB(t)
		}
	}
	if varDB != 0 {
		g *= DBToLinear(varDB)
	}
	return g
}
