package phy

import (
	"fmt"

	"fourbit/internal/sim"
)

// RadioParams describe the CC2420-class transceiver.
type RadioParams struct {
	BitrateBps        int     // 250 kbit/s for 802.15.4 at 2.4 GHz
	PreambleBytes     int     // synchronization header sent before the frame
	SensitivityDBm    float64 // below this a frame cannot be acquired
	DetectionDBm      float64 // below this a signal contributes nothing
	CCAThresholdDBm   float64 // clear-channel assessment energy threshold
	CaptureDB         float64 // a new signal this much stronger steals the receiver
	DefaultTxPowerDBm float64
	// InterferenceFactor weights co-channel interference relative to
	// thermal noise when computing the effective SINR. Concurrent 802.15.4
	// transmissions are far more destructive than AWGN of the same power
	// (the BER curve's DSSS processing gain does not apply to structured
	// interference), so interference counts this many times its power.
	InterferenceFactor float64
}

// DefaultRadioParams returns CC2420-like values.
func DefaultRadioParams() RadioParams {
	return RadioParams{
		BitrateBps:         250_000,
		PreambleBytes:      6,
		SensitivityDBm:     -100,
		DetectionDBm:       -110,
		CCAThresholdDBm:    -85,
		CaptureDB:          6,
		DefaultTxPowerDBm:  0,
		InterferenceFactor: 6,
	}
}

// Medium connects n radios through a Channel, implementing frame-level
// transmission with SINR-based reception, physical capture, and energy-based
// carrier sense. All radios share one spectrum (one 802.15.4 channel).
type Medium struct {
	clock  *sim.Simulator
	ch     *Channel
	rp     RadioParams
	lqip   LQIParams
	radios []*Radio
	rng    *sim.Rand

	active     []*transmission
	candidates [][]int32 // per transmitter: receivers within detection range
	candSlots  [][]int32 // sparse channel only: adjacency slot per candidate

	// Hot-path caches: the radio parameters converted to linear once, the
	// running interference sum per receiver (maintained incrementally as
	// transmissions start and finish instead of rescanning active), and a
	// free list of per-transmission received-power buffers.
	captureLin float64
	detectMW   float64
	sensMW     float64
	ccaMW      float64
	interfMW   []float64
	powCap     int // max candidate-set size: length of pooled powMW buffers
	powFree    [][]float64
	txFree     []*transmission // recycled transmission records
	finishFn   func(any)       // m.finishTx adapter, built once for ScheduleArg
	prrT       []*PRRTable     // per frame length, filled lazily from the shared cache

	onTransmit func(from int, data []byte)

	Stats MediumStats
}

// MediumStats aggregate frame outcomes across all radios.
type MediumStats struct {
	Transmissions    uint64
	Delivered        uint64
	DroppedBER       uint64 // failed the SINR reception draw, no interference present
	DroppedCollision uint64 // failed the draw with interference present
	CaptureSwitches  uint64 // receptions stomped by a much stronger signal
	DroppedTxWhileRx uint64 // receptions aborted because the radio turned around to transmit
}

type transmission struct {
	from     int
	data     []byte
	powerDBm float64
	end      sim.Time
	idx      int       // position in Medium.active, for O(1) removal
	powMW    []float64 // received power per candidate (sender's candidate order); 0 = undetectable
}

type reception struct {
	tx          *transmission
	powerMW     float64
	curInterfMW float64
	maxInterfMW float64
}

// NewMedium builds the shared medium. Radios are created for every node of
// the channel with the default transmit power.
func NewMedium(clock *sim.Simulator, ch *Channel, rp RadioParams, lqip LQIParams, seeds *sim.SeedSpace) *Medium {
	m := &Medium{
		clock: clock,
		ch:    ch,
		rp:    rp,
		lqip:  lqip,
		rng:   seeds.Stream("phy/medium"),
	}
	n := ch.N()
	m.finishFn = func(a any) { m.finishTx(a.(*transmission)) }
	m.captureLin = DBToLinear(rp.CaptureDB)
	m.detectMW = DBmToMilliwatts(rp.DetectionDBm)
	m.sensMW = DBmToMilliwatts(rp.SensitivityDBm)
	m.ccaMW = DBmToMilliwatts(rp.CCAThresholdDBm)
	m.interfMW = make([]float64, n)
	// One contiguous backing array for the radios: the per-candidate hot
	// loops chase radios[j] for scattered j, and spreading n individually
	// allocated structs across the heap costs a cache miss per visit at
	// city scale.
	m.radios = make([]*Radio, n)
	backing := make([]Radio, n)
	for i := 0; i < n; i++ {
		backing[i] = Radio{m: m, id: i}
		m.radios[i] = &backing[i]
		m.radios[i].SetTxPower(rp.DefaultTxPowerDBm)
	}
	// Candidate receivers: static gain at maximum plausible power
	// (audibleMaxTxPowerDBm) plus a fade margin (audibleFadeMarginDB) must
	// clear the detection floor. The margin is generous so that fading can
	// only shrink, never grow, the true receiver set. The channel's
	// representation supplies the links to filter: the dense path offers
	// every pair, the sparse one only its stored audible set — which must
	// therefore floor at or below what this filter could admit, or culling
	// would change results. The filter expression itself is identical
	// either way, applied to identical static-gain values.
	if ch.Sparse() {
		need := rp.DetectionDBm - audibleMaxTxPowerDBm - audibleFadeMarginDB
		if floor := ch.AudibleFloorDB(); floor > need-0.25 {
			panic(fmt.Sprintf("phy: sparse channel floor %.2f dB too high for detection threshold %.2f dBm (needs <= %.2f)",
				floor, rp.DetectionDBm, need-0.25))
		}
		m.candSlots = make([][]int32, n)
	}
	m.candidates = make([][]int32, n)
	for i := 0; i < n; i++ {
		ch.ForEachAudible(i, func(j int, slot int32, gainDB float64) {
			if audibleMaxTxPowerDBm+gainDB+audibleFadeMarginDB >= rp.DetectionDBm {
				m.candidates[i] = append(m.candidates[i], int32(j))
				if m.candSlots != nil {
					m.candSlots[i] = append(m.candSlots[i], slot)
				}
			}
		})
		if len(m.candidates[i]) > m.powCap {
			m.powCap = len(m.candidates[i])
		}
	}
	return m
}

// Radio returns the radio of node id.
func (m *Medium) Radio(id int) *Radio { return m.radios[id] }

// OnTransmit installs a measurement tap invoked for every transmission put
// on the air (trace recording; not visible to the protocol stack).
func (m *Medium) OnTransmit(fn func(from int, data []byte)) { m.onTransmit = fn }

// N returns the number of radios.
func (m *Medium) N() int { return len(m.radios) }

// Airtime returns the on-air duration of a frame of payloadBytes (MAC header
// + payload + CRC), including the synchronization header.
func (m *Medium) Airtime(payloadBytes int) sim.Time {
	bits := int64(m.rp.PreambleBytes+payloadBytes) * 8
	return sim.Time(bits * int64(sim.Second) / int64(m.rp.BitrateBps))
}

// getPowBuf returns a zeroed per-transmission received-power buffer sized
// for the largest candidate set (indexed by candidate position, so it stays
// cache-resident at city scale instead of spanning all n nodes), reusing a
// pooled one when available. finishTx releases buffers back via putPowBuf;
// no reference to a buffer survives its transmission (receptions of a frame
// are all resolved inside that frame's finishTx).
func (m *Medium) getPowBuf() []float64 {
	if n := len(m.powFree); n > 0 {
		b := m.powFree[n-1]
		m.powFree = m.powFree[:n-1]
		return b
	}
	return make([]float64, m.powCap)
}

func (m *Medium) putPowBuf(b []float64) { m.powFree = append(m.powFree, b) }

// getTx returns a zeroed transmission record, reusing a pooled one when
// available. finishTx releases records: by the time it returns, every
// reception of the frame is resolved and no pointer to the record survives
// (receptions locked on it are cleared in its candidate sweep).
func (m *Medium) getTx() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
		*t = transmission{}
		return t
	}
	return &transmission{}
}

// prrDecide resolves a reception draw through the certified PRR table for
// the frame's length (bit-identical to rng.Bernoulli(PRR(...)); see
// PRRTable.Decide), falling back to the analytic function for lengths the
// table does not serve. The per-medium slice keeps the shared-cache lookup
// off the per-reception path.
func (m *Medium) prrDecide(sinrDB float64, frameBytes int) bool {
	if frameBytes > 0 && frameBytes < len(m.prrT) {
		if tb := m.prrT[frameBytes]; tb != nil {
			return tb.Decide(sinrDB, m.rng)
		}
	}
	tb := PRRTableFor(frameBytes)
	if tb == nil {
		return m.rng.Bernoulli(PRR(sinrDB, frameBytes))
	}
	if frameBytes >= len(m.prrT) {
		grown := make([]*PRRTable, frameBytes+1)
		copy(grown, m.prrT)
		m.prrT = grown
	}
	m.prrT[frameBytes] = tb
	return tb.Decide(sinrDB, m.rng)
}

func (m *Medium) startTx(r *Radio, data []byte) sim.Time {
	if r.transmitting {
		panic(fmt.Sprintf("phy: radio %d Transmit while transmitting", r.id))
	}
	now := m.clock.Now()
	if r.rx != nil {
		// Half duplex: turning around to transmit aborts the reception.
		r.rx = nil
		m.Stats.DroppedTxWhileRx++
	}
	air := m.Airtime(len(data))
	if r.down {
		// A powered-off radio radiates nothing. The MAC never reaches this
		// path in practice (ChannelClear is false while down), but the
		// contract stays safe: the "transmission" occupies the radio for its
		// airtime and touches no receiver.
		t := m.getTx()
		t.from, t.end, t.idx, t.powMW = r.id, now+air, len(m.active), m.getPowBuf()
		m.active = append(m.active, t)
		r.transmitting = true
		m.clock.ScheduleArg(t.end, m.finishFn, t)
		return air
	}
	t := m.getTx()
	t.from = r.id
	t.data = data
	t.powerDBm = r.txPowerDBm
	t.end = now + air
	t.idx = len(m.active)
	t.powMW = m.getPowBuf()
	m.active = append(m.active, t)
	r.transmitting = true
	m.Stats.Transmissions++
	r.Stats.TxFrames++
	if m.onTransmit != nil {
		m.onTransmit(r.id, data)
	}

	cands := m.candidates[r.id]
	var slots []int32
	if m.candSlots != nil {
		slots = m.candSlots[r.id]
	}
	for ci, j32 := range cands {
		j := int(j32)
		// Both branches sample the same per-pair fading process at the same
		// instant in the same (ascending-j) order; the slot variant only
		// skips the adjacency row search.
		var pmw float64
		if slots != nil {
			pmw = r.txPowMW * m.ch.gainLinSlot(r.id, j, slots[ci], now)
		} else {
			pmw = r.txPowMW * m.ch.GainLin(r.id, j, now)
		}
		if pmw < m.detectMW {
			continue
		}
		t.powMW[ci] = pmw
		m.interfMW[j] += pmw
		rj := m.radios[j]
		switch {
		case rj.down:
			// Powered off: the energy still arrives at the antenna (and is
			// accounted as interference for symmetry with finishTx), but the
			// radio cannot lock on.
		case rj.transmitting:
			// Busy transmitting; this signal is inaudible to j but was
			// recorded above as interference for others via t.powMW.
		case rj.rx != nil:
			if pmw > rj.rx.powerMW*m.captureLin && pmw >= m.sensMW {
				// Physical capture: the much stronger new signal steals the
				// receiver; the old frame is lost and keeps interfering.
				m.Stats.CaptureSwitches++
				rj.Stats.DropsCollision++
				rj.lockOn(t, pmw, m.interfMW[j]-pmw)
			} else {
				rj.rx.curInterfMW += pmw
				if rj.rx.curInterfMW > rj.rx.maxInterfMW {
					rj.rx.maxInterfMW = rj.rx.curInterfMW
				}
			}
		default: // idle
			if pmw >= m.sensMW {
				rj.lockOn(t, pmw, m.interfMW[j]-pmw)
			}
		}
	}
	// The finish event is scheduled before any caller-side completion event
	// at the same deadline, so receivers see the frame before the sender's
	// MAC reacts to its own completion (FIFO ordering at equal times).
	m.clock.ScheduleArg(t.end, m.finishFn, t)
	return air
}

func (m *Medium) finishTx(t *transmission) {
	// Swap-delete from the active set; t recorded its own position.
	last := len(m.active) - 1
	if t.idx != last {
		moved := m.active[last]
		m.active[t.idx] = moved
		moved.idx = t.idx
	}
	m.active[last] = nil
	m.active = m.active[:last]
	sender := m.radios[t.from]
	sender.transmitting = false

	now := m.clock.Now()
	for ci, j32 := range m.candidates[t.from] {
		j := int(j32)
		pmw := t.powMW[ci]
		if pmw == 0 {
			continue
		}
		t.powMW[ci] = 0
		m.interfMW[j] -= pmw
		if m.interfMW[j] < 0 {
			m.interfMW[j] = 0 // rounding drift from the incremental sum
		}
		rj := m.radios[j]
		rx := rj.rx
		if rx == nil {
			continue
		}
		if rx.tx != t {
			// This transmission was interference for j's ongoing reception.
			rx.curInterfMW -= pmw
			if rx.curInterfMW < 0 {
				rx.curInterfMW = 0
			}
			continue
		}
		rj.rx = nil
		noise := m.ch.NoiseMW(j, now)
		sinrLin := rx.powerMW / (noise + m.rp.InterferenceFactor*rx.maxInterfMW)
		sinrDB := LinearToDB(sinrLin)
		// Fast per-packet variation (multipath ISI): one draw decides both
		// the frame's fate and, if it survives, the quality it reports —
		// so received packets are biased toward good instants.
		if jitter := m.ch.PacketJitterSigmaDB(); jitter > 0 {
			sinrDB += m.rng.Normal(0, jitter)
		}
		if m.prrDecide(sinrDB, len(t.data)) {
			lqi, white := m.lqip.Synthesize(sinrDB, m.rng)
			info := RxInfo{
				At:    now,
				SNRdB: sinrDB,
				LQI:   lqi,
				White: white,
			}
			m.Stats.Delivered++
			rj.Stats.RxFrames++
			if rj.snoop != nil {
				rj.snoop(t.data, info)
			}
			if rj.recv != nil {
				rj.recv(t.data, info)
			}
		} else if rx.maxInterfMW > noise*0.1 {
			m.Stats.DroppedCollision++
			rj.Stats.DropsCollision++
		} else {
			m.Stats.DroppedBER++
			rj.Stats.DropsBER++
		}
	}
	m.putPowBuf(t.powMW)
	*t = transmission{} // drop the data reference before pooling
	m.txFree = append(m.txFree, t)
}

// Radio is one node's transceiver. MAC layers drive it through Transmit and
// ChannelClear and receive frames via the handler installed with OnReceive.
type Radio struct {
	m            *Medium
	id           int
	txPowerDBm   float64
	txPowMW      float64 // txPowerDBm converted once at SetTxPower
	transmitting bool
	down         bool
	rx           *reception
	rxBuf        reception // storage reused across receptions (rx points here)
	recv         func(data []byte, info RxInfo)
	snoop        func(data []byte, info RxInfo)

	Stats RadioStats
}

// lockOn points the radio's receiver at transmission t, reusing the
// radio-owned reception buffer (the previous reception, if any, is dead by
// the time lockOn runs).
func (r *Radio) lockOn(t *transmission, pmw, interf float64) {
	r.rxBuf = reception{tx: t, powerMW: pmw, curInterfMW: interf, maxInterfMW: interf}
	r.rx = &r.rxBuf
}

// RadioStats count per-radio frame outcomes.
type RadioStats struct {
	TxFrames       uint64
	RxFrames       uint64
	DropsBER       uint64
	DropsCollision uint64
}

// ID returns the node index of this radio.
func (r *Radio) ID() int { return r.id }

// OnReceive installs the frame delivery handler. The data slice is shared
// with the sender and must be treated as immutable.
func (r *Radio) OnReceive(fn func(data []byte, info RxInfo)) { r.recv = fn }

// OnSnoop installs a measurement tap that sees every frame this radio
// successfully receives, before the protocol handler. Used by the trace
// recorder; must not mutate the data.
func (r *Radio) OnSnoop(fn func(data []byte, info RxInfo)) { r.snoop = fn }

// SetTxPower sets the transmit power in dBm for subsequent transmissions.
func (r *Radio) SetTxPower(dbm float64) {
	r.txPowerDBm = dbm
	r.txPowMW = DBmToMilliwatts(dbm)
}

// TxPower returns the configured transmit power in dBm.
func (r *Radio) TxPower() float64 { return r.txPowerDBm }

// SetDown powers the radio off (true) or back on (false). A down radio is
// deaf and mute: it radiates nothing, locks onto nothing, and reports a
// busy channel so its MAC's CSMA attempts fail without touching the air.
// From the network's perspective the node is dead — neighbors stop hearing
// its beacons and acks and age it out — which is how scenario dynamics
// script node death and reboot. Going down aborts any in-progress
// reception; a frame already mid-flight from this radio completes (the
// sub-millisecond truncation is below the model's resolution).
func (r *Radio) SetDown(down bool) {
	if r.down == down {
		return
	}
	r.down = down
	if down && r.rx != nil {
		r.rx = nil
	}
}

// Down reports whether the radio is powered off.
func (r *Radio) Down() bool { return r.down }

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.transmitting }

// Receiving reports whether the radio is locked onto an incoming frame.
func (r *Radio) Receiving() bool { return r.rx != nil }

// ChannelClear performs a CC2420-style energy-detect clear channel
// assessment: the channel is clear when total received energy (noise plus
// all active signals) is below the CCA threshold and the radio itself is
// neither transmitting nor locked onto a frame. The signal energy comes
// from the incrementally-maintained per-receiver interference sum (a
// radio's own transmissions never contribute: a node is not among its own
// candidates), and the comparison happens in the linear domain.
func (r *Radio) ChannelClear() bool {
	if r.down || r.transmitting || r.rx != nil {
		return false
	}
	return r.m.ch.NoiseMW(r.id, r.m.clock.Now())+r.m.interfMW[r.id] < r.m.ccaMW
}

// Transmit puts data on the air immediately and returns its airtime. The
// caller (the MAC) schedules its own completion handling after the returned
// duration; receivers get the frame first at that instant.
func (r *Radio) Transmit(data []byte) sim.Time {
	return r.m.startTx(r, data)
}
