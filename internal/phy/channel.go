package phy

import (
	"fmt"
	"math"
	"sync/atomic"

	"fourbit/internal/sim"
)

// Params configures the channel model. The defaults approximate an indoor
// office deployment of CC2420-class radios, with per-node hardware variation
// as characterized by Zuniga & Krishnamachari (ToSN'07) — the source the
// paper cites for link unreliability and asymmetry.
type Params struct {
	// Path loss: PL(d) = PathLossRefDB + 10·Exponent·log10(d/1m).
	PathLossRefDB    float64
	PathLossExponent float64
	// Lognormal shadowing, sampled once per unordered node pair (the static
	// environment is symmetric; asymmetry comes from hardware variation).
	ShadowSigmaDB float64
	// Per-node transmit power offset and receiver noise-figure offset
	// (hardware variation ⇒ persistent link asymmetry).
	TxVarSigmaDB    float64
	NoiseFigSigmaDB float64
	// Thermal noise floor and its slow per-node drift (interference from
	// the 2.4 GHz band, temperature, ...).
	NoiseFloorDBm     float64
	NoiseDriftSigmaDB float64
	NoiseDriftTau     sim.Time
	// Per-link time-varying fading. Combined with the steep 802.15.4 PRR
	// waterfall this makes marginal links bursty/bimodal while leaving
	// high-margin links untouched.
	FadeSigmaDB float64
	FadeTau     sim.Time
	// Receiver-side noise bursts: external 2.4 GHz interference (WiFi,
	// microwave ovens) periodically raises one receiver's noise floor by
	// NoiseBurstAmpDB for ~NoiseBurstMeanOn at a time. Packets received
	// outside bursts carry full LQI, so the resulting loss is invisible to
	// physical-layer metrics — but the ack bit sees it, and a 4B node can
	// route around the deaf receiver.
	NoiseBurstAmpDB   float64
	NoiseBurstMeanOn  sim.Time
	NoiseBurstMeanOff sim.Time
	// PacketJitterSigmaDB is fast per-packet channel variation (multipath
	// inter-symbol interference, co-channel noise) applied independently
	// to each frame's effective SNR. With the steep 802.15.4 waterfall it
	// is what produces the wide band of intermediate-quality links real
	// testbeds show — and the LQI optimism bias: packets that survive a
	// low draw are rare, so received packets systematically report better
	// channel quality than the link average.
	PacketJitterSigmaDB float64
	// SparseAboveN selects the sparse audible-set representation (see
	// spatial.go) for networks of at least this many nodes, replacing the
	// dense n×n gain/fade/modifier arrays with a per-node CSR over links
	// whose static gain clears AudibleFloorDB. Zero means
	// DefaultSparseAboveN; negative disables the sparse path entirely.
	// Representation choice never changes results — the differential
	// tests pin byte-identical trajectories either way.
	SparseAboveN int
	// AudibleFloorDB is the static-gain storage floor of the sparse
	// representation in dB (a large negative number). Zero means
	// DefaultAudibleFloorDB, which sits a guard band below the weakest
	// signal the medium's detection threshold could ever admit. NewMedium
	// rejects a sparse channel whose floor is too high for the radio's
	// configured detection threshold.
	AudibleFloorDB float64
}

// DefaultParams returns the indoor-office parameterization used by the
// Mirage-style experiments. The reference loss is calibrated so hop depths
// match the paper's testbeds: at 0 dBm the reliable range is ~40 m (1–2 hop
// networks on a 48×28 m floor), shrinking to ~9 m at −20 dBm (4+ hops) —
// the depth progression of the paper's Figure 7.
func DefaultParams() Params {
	return Params{
		PathLossRefDB:       47,
		PathLossExponent:    3.0,
		ShadowSigmaDB:       3.2,
		TxVarSigmaDB:        2.0,
		NoiseFigSigmaDB:     0.9,
		NoiseFloorDBm:       -98,
		NoiseDriftSigmaDB:   0.8,
		NoiseDriftTau:       5 * sim.Minute,
		FadeSigmaDB:         2.0,
		FadeTau:             25 * sim.Second,
		NoiseBurstAmpDB:     10,
		NoiseBurstMeanOn:    300 * sim.Millisecond,
		NoiseBurstMeanOff:   12 * sim.Second,
		PacketJitterSigmaDB: 2.5,
	}
}

// LinkModifier adds scripted, time-varying extra loss to a directed link.
// Scenario builders install modifiers (e.g. a GilbertElliott process) to
// force specific link dynamics, such as the degrading parent link in the
// paper's Figure 3.
type LinkModifier interface {
	ExtraLossDB(t sim.Time) float64
}

// Channel holds the directed link-gain model between n nodes and the
// per-node noise processes. It is built once from inter-node distances (and
// optional extra static attenuation, e.g. floors/walls from the topology)
// and then queried per packet.
type Channel struct {
	p Params
	n int

	staticGainDB []float64         // dense: n*n path loss + shadowing + tx offset, tx→rx
	noiseFigDB   []float64         // per node
	noiseDrift   []ouState         // per node
	fade         []ouState         // dense: per unordered pair at [a*n+b], a<b; sparse: per stored pair
	bursts       []*GilbertElliott // per-node noise bursts (nil if disabled)
	modifiers    []LinkModifier    // dense: n*n scripted link-loss slots
	noiseMods    [][]LinkModifier  // per-node scripted noise excursions (nil if unused)

	// Sparse audible-set representation (see spatial.go), active instead
	// of the dense arrays when sparse is true: a symmetric CSR over the
	// stored directed links. adjNbr[adjOff[i]:adjOff[i+1]] lists i's
	// audible neighbors ascending; the parallel arrays carry the directed
	// static gain (dB and linear) and the pair's index into fade. Culled
	// links read as gain −Inf (0 linear) and hold no state at all — no
	// fading process, no modifier slot. modMap replaces the dense
	// modifiers array (scripted dynamics touch a handful of links; a map
	// beats 800 MB of nil slots at 10k nodes).
	sparse     bool
	adjOff     []int32
	adjNbr     []int32
	adjGainDB  []float64
	adjGainLin []float64
	adjPair    []int32
	modMap     map[int64]LinkModifier

	// Linear-domain mirrors of the static model, precomputed once so the
	// per-frame path (GainLin, NoiseMW) converts only the time-varying dB
	// terms.
	staticGainLin []float64 // n*n: 10^(staticGainDB/10)
	noiseMWStatic []float64 // per node: floor + noise figure in milliwatts

	// Dynamics bookkeeping. AddNoiseModifier bumps noiseEpoch, which
	// invalidates the same-instant noise memo below; SetModifier maintains
	// linkModCount, the gain side's invalidation mechanism — while it is
	// zero (no scripted link dynamics installed, the common case for every
	// non-scenario run) the per-query fast path skips the n*n
	// modifier-slot load entirely. There is no gain-side memo to version:
	// same-instant gain repeats were measured too rare to pay for one.
	noiseEpoch   uint32
	linkModCount int

	// Same-instant noise memo: a (time, epoch)-keyed cache of the last
	// computed noise power per receiver. A hit can only occur for a
	// repeated query at an identical timestamp, where the OU and
	// Gilbert–Elliott processes are no-ops by construction (dt == 0 draws
	// nothing), so the memo is exactness-transparent: it never changes a
	// value or the random-stream consumption. (A per-link gain memo was
	// measured too: same-instant gain repeats are so rare that its n²
	// stores cost more than the hits saved, so only the noise path keeps
	// a memo.)
	noiseMemo []chanMemo // n

	// Per-family OU transition-coefficient caches; see ouCoeffs. burstCo
	// is the analogous shared decay cache for the per-node noise-burst
	// processes (identical sojourn means across nodes).
	fadeCo  ouCoeffs
	noiseCo ouCoeffs
	burstCo geCoeffs

	noiseRng *sim.Rand
	fadeRng  *sim.Rand
}

// chanMemo is one slot of the same-instant memo. epoch 0 is never current
// (epochs start at 1), so the zero value is invalid without initialization.
type chanMemo struct {
	at    sim.Time
	epoch uint32
	val   float64
}

// ChannelPre is the immutable, seed-independent half of a channel: the
// deterministic path-loss geometry (the n·log10 matrix — by far the most
// expensive part of channel construction) plus the parameters. One
// ChannelPre serves any number of per-seed Channel instantiations, and it
// is safe to share read-only across goroutines: after Precompute returns,
// nothing ever writes it (NewChannel only reads basePL/extraDB).
type ChannelPre struct {
	p Params
	n int

	// basePL is the distance-determined path loss per unordered pair
	// (PathLossRefDB + 10·Exponent·log10(max(d, 0.5m))), stored at [i*n+j]
	// for i < j. The per-seed terms — shadowing draw, then static
	// obstruction loss — are added in NewChannel in exactly the order the
	// monolithic constructor used, so the float results are bit-identical.
	basePL []float64
	// extraDB is a defensive copy of the static obstruction loss per
	// unordered pair ([i*n+j], i < j); nil when the topology had none.
	extraDB []float64

	// Sparse near-pair geometry (see spatial.go), replacing basePL/extraDB
	// when sparse is true: a CSR over unordered pairs within the cutoff
	// radius (row i lists j > i ascending) with each pair's deterministic
	// path loss and obstruction loss, plus the retained Geometry for the
	// rare beyond-cutoff pair whose shadowing draw defeats the certified
	// bound plAtCutoff.
	sparse     bool
	geo        Geometry
	cutoffM    float64
	plAtCutoff float64
	nearOff    []int32
	nearNbr    []int32
	nearPL     []float64
	nearExtra  []float64
}

// precomputeCount counts Precompute invocations process-wide. It exists so
// tests can assert that replicated runs share one precompute per cell
// instead of rebuilding the geometry per seed.
var precomputeCount atomic.Uint64

// PrecomputeCount returns the process-wide number of Precompute calls
// (test/diagnostic hook for setup-sharing assertions).
func PrecomputeCount() uint64 { return precomputeCount.Load() }

// Precompute builds the immutable half of a channel for nodes separated by
// dist (meters, dist[i][j] == dist[j][i]) with optional extraLossDB (static
// obstruction loss per unordered pair; nil means none). It draws no
// randomness: the result is a pure function of (dist, extraLossDB, p).
func Precompute(dist [][]float64, extraLossDB [][]float64, p Params) *ChannelPre {
	precomputeCount.Add(1)
	n := len(dist)
	pre := &ChannelPre{p: p, n: n, basePL: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dist[i][j]
			if d < 0.5 {
				d = 0.5
			}
			pre.basePL[i*n+j] = p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(d)
		}
	}
	if extraLossDB != nil {
		pre.extraDB = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pre.extraDB[i*n+j] = extraLossDB[i][j]
			}
		}
	}
	return pre
}

// N returns the number of nodes the precompute covers.
func (pre *ChannelPre) N() int { return pre.n }

// Params returns the channel parameters the precompute was built for.
func (pre *ChannelPre) Params() Params { return pre.p }

// NewChannel instantiates the per-seed half over the shared precompute:
// hardware variation, shadowing, and the dynamic processes, drawn from
// streams of seeds in the same order as the monolithic constructor, so a
// precompute-split channel is bit-identical to a direct one. The receiver
// is only read; concurrent NewChannel calls over one ChannelPre are safe.
func (pre *ChannelPre) NewChannel(seeds *sim.SeedSpace) *Channel {
	n := pre.n
	p := pre.p
	c := &Channel{
		p:          p,
		n:          n,
		noiseFigDB: make([]float64, n),
		noiseDrift: make([]ouState, n),
		noiseRng:   seeds.Stream("phy/noise"),
		fadeRng:    seeds.Stream("phy/fade"),
	}
	static := seeds.Stream("phy/static")
	txOff := make([]float64, n)
	for i := 0; i < n; i++ {
		txOff[i] = static.Normal(0, p.TxVarSigmaDB)
		c.noiseFigDB[i] = static.Normal(0, p.NoiseFigSigmaDB)
	}
	if p.NoiseBurstAmpDB > 0 && p.NoiseBurstMeanOn > 0 && p.NoiseBurstMeanOff > 0 {
		// One backing array, not n heap objects: NoiseMW touches bursts[rx]
		// once per receiver per reception, in receiver order — contiguous
		// processes keep that sweep inside a few pages at city scale.
		c.bursts = make([]*GilbertElliott, n)
		backing := make([]GilbertElliott, n)
		for i := 0; i < n; i++ {
			backing[i] = *NewGilbertElliott(p.NoiseBurstAmpDB,
				p.NoiseBurstMeanOff, p.NoiseBurstMeanOn,
				seeds.Stream(fmt.Sprintf("phy/burst/%d", i)))
			c.bursts[i] = backing[i].SharedDecay(&c.burstCo)
		}
	}
	if pre.sparse {
		pre.newSparse(c, static, txOff)
	} else {
		c.staticGainDB = make([]float64, n*n)
		c.fade = make([]ouState, n*n)
		c.modifiers = make([]LinkModifier, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pl := pre.basePL[i*n+j]
				pl += static.Normal(0, p.ShadowSigmaDB)
				if pre.extraDB != nil {
					pl += pre.extraDB[i*n+j]
				}
				// Environment loss is symmetric; asymmetry enters through
				// the transmitter's power offset (receiver noise figure is
				// applied on the noise side).
				c.staticGainDB[i*n+j] = -pl + txOff[i]
				c.staticGainDB[j*n+i] = -pl + txOff[j]
			}
		}
		c.staticGainLin = make([]float64, n*n)
		for i, g := range c.staticGainDB {
			c.staticGainLin[i] = DBToLinear(g)
		}
	}
	c.noiseMWStatic = make([]float64, n)
	for i := 0; i < n; i++ {
		c.noiseMWStatic[i] = DBmToMilliwatts(p.NoiseFloorDBm + c.noiseFigDB[i])
	}
	c.noiseEpoch = 1
	c.noiseMemo = make([]chanMemo, n)
	return c
}

// NewChannel builds the channel for nodes separated by dist (meters,
// dist[i][j] == dist[j][i]) with optional extraLossDB (static obstruction
// loss per unordered pair; nil means none). Random draws come from streams
// of rng so that two channels built from the same seeds are identical.
// It is Precompute + ChannelPre.NewChannel in one step; replicated runs
// should precompute once and instantiate per seed instead.
func NewChannel(dist [][]float64, extraLossDB [][]float64, p Params, seeds *sim.SeedSpace) *Channel {
	return Precompute(dist, extraLossDB, p).NewChannel(seeds)
}

// N returns the number of nodes the channel connects.
func (c *Channel) N() int { return c.n }

// PacketJitterSigmaDB returns the per-packet SNR jitter the medium applies.
func (c *Channel) PacketJitterSigmaDB() float64 { return c.p.PacketJitterSigmaDB }

// GainDB returns the instantaneous channel gain from tx to rx at time t,
// including static path loss/shadowing/hardware offsets, time-varying
// fading, and any installed link modifier. Gain is negative (a loss). On a
// sparse channel a culled link reads as −Inf without sampling anything:
// no fading state exists for it, and no modifier can resurrect it (the
// link was certified inaudible at its best; scripted dynamics only ever
// add loss on top).
func (c *Channel) GainDB(tx, rx int, t sim.Time) float64 {
	if c.sparse {
		slot := c.slotOf(tx, rx)
		if slot < 0 {
			return math.Inf(-1)
		}
		g := c.adjGainDB[slot]
		if c.p.FadeSigmaDB > 0 {
			// Fading is a property of the physical path: one process per
			// stored unordered pair, so the two directions fade together.
			g += c.fade[c.adjPair[slot]].sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.fadeRng, &c.fadeCo)
		}
		if c.linkModCount > 0 {
			if m := c.modMap[int64(tx)*int64(c.n)+int64(rx)]; m != nil {
				g -= m.ExtraLossDB(t)
			}
		}
		return g
	}
	g := c.staticGainDB[tx*c.n+rx]
	if c.p.FadeSigmaDB > 0 {
		// Fading is a property of the physical path: use one process per
		// unordered pair so the two directions fade together.
		g += c.fadeState(tx, rx).sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.fadeRng, &c.fadeCo)
	}
	if c.linkModCount > 0 {
		if m := c.modifiers[tx*c.n+rx]; m != nil {
			g -= m.ExtraLossDB(t)
		}
	}
	return g
}

// GainLin is GainDB in linear power ratio, organized so the precomputed
// static gain costs nothing and only the time-varying dB terms (fading,
// modifiers) pay one exp. It samples the same fading process in the same
// order as GainDB, so the two are interchangeable without perturbing the
// random streams. While no link modifiers are installed (linkModCount ==
// 0, maintained by SetModifier) the modifier layer — an n²-slot pointer
// load per query — is skipped entirely.
func (c *Channel) GainLin(tx, rx int, t sim.Time) float64 {
	if c.sparse {
		slot := c.slotOf(tx, rx)
		if slot < 0 {
			return 0
		}
		return c.gainLinSlot(tx, rx, slot, t)
	}
	idx := tx*c.n + rx
	g := c.staticGainLin[idx]
	varDB := 0.0
	if c.p.FadeSigmaDB > 0 {
		varDB = c.fadeState(tx, rx).sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.fadeRng, &c.fadeCo)
	}
	if c.linkModCount > 0 {
		if lm := c.modifiers[idx]; lm != nil {
			varDB -= lm.ExtraLossDB(t)
		}
	}
	if varDB != 0 {
		g *= DBToLinear(varDB)
	}
	return g
}

func (c *Channel) fadeState(a, b int) *ouState {
	if a > b {
		a, b = b, a
	}
	return &c.fade[a*c.n+b]
}

// StaticGainDB returns the time-invariant part of the link gain, used for
// neighbor-candidate pruning and for topology reports. Culled links on a
// sparse channel read as −Inf.
func (c *Channel) StaticGainDB(tx, rx int) float64 {
	if c.sparse {
		if slot := c.slotOf(tx, rx); slot >= 0 {
			return c.adjGainDB[slot]
		}
		return math.Inf(-1)
	}
	return c.staticGainDB[tx*c.n+rx]
}

// NoiseDBm returns the instantaneous noise floor at rx, including slow
// drift and external interference bursts.
func (c *Channel) NoiseDBm(rx int, t sim.Time) float64 {
	nz := c.p.NoiseFloorDBm + c.noiseFigDB[rx]
	if c.p.NoiseDriftSigmaDB > 0 {
		nz += c.noiseDrift[rx].sample(t, c.p.NoiseDriftTau, c.p.NoiseDriftSigmaDB, c.noiseRng, &c.noiseCo)
	}
	if c.bursts != nil {
		nz += c.bursts[rx].ExtraLossDB(t)
	}
	if c.noiseMods != nil {
		for _, m := range c.noiseMods[rx] {
			nz += m.ExtraLossDB(t)
		}
	}
	return nz
}

// NoiseMW is NoiseDBm in milliwatts: the static floor + noise figure come
// from a precomputed table and only the drift/burst dB excursion pays a
// conversion. Sampling order matches NoiseDBm exactly, and repeated
// queries at one instant hit the epoch-versioned memo.
func (c *Channel) NoiseMW(rx int, t sim.Time) float64 {
	memo := &c.noiseMemo[rx]
	if memo.at == t && memo.epoch == c.noiseEpoch {
		return memo.val
	}
	mw := c.noiseMWStatic[rx]
	varDB := 0.0
	if c.p.NoiseDriftSigmaDB > 0 {
		varDB = c.noiseDrift[rx].sample(t, c.p.NoiseDriftTau, c.p.NoiseDriftSigmaDB, c.noiseRng, &c.noiseCo)
	}
	if c.bursts != nil {
		varDB += c.bursts[rx].ExtraLossDB(t)
	}
	if c.noiseMods != nil {
		for _, m := range c.noiseMods[rx] {
			varDB += m.ExtraLossDB(t)
		}
	}
	if varDB != 0 {
		mw *= DBToLinear(varDB)
	}
	*memo = chanMemo{at: t, epoch: c.noiseEpoch, val: mw}
	return mw
}

// SetModifier installs (or clears, with nil) a scripted loss process on the
// directed link tx→rx. linkModCount tracks how many modifiers are
// installed so the gain fast path can skip the modifier layer entirely
// while the count is zero.
func (c *Channel) SetModifier(tx, rx int, m LinkModifier) {
	if tx < 0 || tx >= c.n || rx < 0 || rx >= c.n {
		panic(fmt.Sprintf("phy: SetModifier(%d,%d) out of range n=%d", tx, rx, c.n))
	}
	if c.sparse {
		// Modifiers are honored on stored links only: a culled link has no
		// state and reads −Inf regardless, and a loss process can never
		// raise a gain that was certified inaudible at its ceiling. The
		// map is keyed by the directed index; it stays tiny (scripted
		// dynamics touch a handful of links).
		key := int64(tx)*int64(c.n) + int64(rx)
		switch old := c.modMap[key]; {
		case old == nil && m != nil:
			c.linkModCount++
		case old != nil && m == nil:
			c.linkModCount--
		}
		if m == nil {
			delete(c.modMap, key)
			return
		}
		if c.modMap == nil {
			c.modMap = make(map[int64]LinkModifier)
		}
		c.modMap[key] = m
		return
	}
	idx := tx*c.n + rx
	switch old := c.modifiers[idx]; {
	case old == nil && m != nil:
		c.linkModCount++
	case old != nil && m == nil:
		c.linkModCount--
	}
	c.modifiers[idx] = m
}

// SetModifierBoth installs the same modifier on both directions of a link.
func (c *Channel) SetModifierBoth(a, b int, m LinkModifier) {
	c.SetModifier(a, b, m)
	c.SetModifier(b, a, m)
}

// AddNoiseModifier attaches a scripted noise-floor excursion (in dB, via the
// LinkModifier interface) to receiver rx. Scenario dynamics use this for
// mid-run interference onset: a GilbertElliott process windowed to the
// event raises the receiver's noise floor, so losses occur that no received
// packet's LQI can reveal. Multiple modifiers on one receiver add up.
func (c *Channel) AddNoiseModifier(rx int, m LinkModifier) {
	if rx < 0 || rx >= c.n {
		panic(fmt.Sprintf("phy: AddNoiseModifier(%d) out of range n=%d", rx, c.n))
	}
	if c.noiseMods == nil {
		c.noiseMods = make([][]LinkModifier, c.n)
	}
	c.noiseMods[rx] = append(c.noiseMods[rx], m)
	c.noiseEpoch++
}

// ExpectedSNRdB returns the static (no fading, no drift) SNR for a packet
// sent at txPowerDBm from tx to rx — the planning value used by topology
// diagnostics and tests.
func (c *Channel) ExpectedSNRdB(tx, rx int, txPowerDBm float64) float64 {
	return txPowerDBm + c.StaticGainDB(tx, rx) - (c.p.NoiseFloorDBm + c.noiseFigDB[rx])
}
