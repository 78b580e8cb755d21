package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/node"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/scenario"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// simWorkload is one of the two simulation workloads: a batch of
// collection runs, repeated under the seed's replica seeds until the
// measured window ends.
type simWorkload struct {
	name    string
	workers int
	// topology generates the batch's runs from the seed: topologies and
	// run configs, before any channel precompute.
	topology func(seed uint64) ([]experiment.RunConfig, error)
	// figure marks a workload whose runs, batch by batch, replicate the
	// paper's Figure 6; checkFigure6 checks the replicated figure.
	figure bool
	// serialOnly marks a workload whose runs take the serial event loop,
	// where the estimator timer and the transmission capture are safe.
	serialOnly bool
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// batchSeconds is a batch's wall time on the reference machine (2
	// cores), which turns --seconds into a batch count.
	batchSeconds float64
	params       map[string]any
}

// fig6Mirage is Figure 6 as one batch: the five design-space variants on
// the 85-node Mirage testbed, on an experiment pool nproc wide.
func fig6Mirage(minutes float64, workers int) *simWorkload {
	return &simWorkload{
		name:    "fig6-mirage",
		workers: workers,
		topology: func(seed uint64) ([]experiment.RunConfig, error) {
			return scenario.BuildRuns(scenario.Fig6Specs(seed, minutes))
		},
		figure:       true,
		serialOnly:   true,
		setupReps:    100,
		batchSeconds: 1.5,
		params: map[string]any{"topology": "mirage-85", "variants": "CTP,CTP+unidir,CTP+white,4B,MultiHopLQI",
			"sim_minutes": minutes, "workers": workers},
	}
}

// checkFigure6 requires the paper's Figure 6 result of the replicated
// figure, the variants' means over a pass's batches: 4B has the lowest
// cost of the five variants and delivers at least 99%. A single replica at
// 5 simulated minutes can miss it (replica 11 of seed 302: 4B cost 1.870,
// CTP+white 1.765), as any one short testbed run can; the figure is a mean.
func checkFigure6(means map[experiment.Protocol]*variantMean) error {
	fb, ok := means[experiment.Proto4B]
	if !ok || len(means) != 5 {
		return fmt.Errorf("figure 6 has %d variants, want 5 including 4B", len(means))
	}
	if fb.delivery() < 0.99 {
		return fmt.Errorf("4B delivers %.4f on average, below 0.99", fb.delivery())
	}
	for p, m := range means {
		if p != experiment.Proto4B && m.cost() <= fb.cost() {
			return fmt.Errorf("%v mean cost %.3f is not above 4B's %.3f", p, m.cost(), fb.cost())
		}
	}
	return nil
}

// variantMean accumulates one variant's cost and delivery over batches.
type variantMean struct {
	costSum, deliverySum float64
	n                    int
}

func (m *variantMean) cost() float64     { return m.costSum / float64(m.n) }
func (m *variantMean) delivery() float64 { return m.deliverySum / float64(m.n) }

// The BenchmarkCityCollection2k deployment: 2000 nodes on 8 floors of
// 268x134 m (144 m² per node per floor) placed from topology seed 9,
// path-loss exponent 4.0. The deployment is fixed; the benchmark seed
// drives the runs on it. A run is 10 simulated seconds: at 6 the boot
// transient makes one replica seed's run 3.7 times the work of another's
// (51k to 191k events); at 10 they differ by at most 17% (401k to 469k).
const (
	citySimSeconds = 10
	cityNodes      = 2000
	cityFloors     = 8
	cityWidthM     = 268
	cityHeightM    = 134
	cityTopoSeed   = 9
)

// city2k is 4B collection on the BenchmarkCityCollection2k deployment with
// the event loop left to its default selection.
func city2k() *simWorkload {
	dur := citySimSeconds * sim.Second
	return &simWorkload{
		name:    "city-2k",
		workers: 1,
		topology: func(seed uint64) ([]experiment.RunConfig, error) {
			tp := topo.MultiFloor(cityNodes, cityFloors, cityWidthM, cityHeightM, cityTopoSeed)
			rc := experiment.DefaultRunConfig(experiment.Proto4B, tp, seed)
			rc.Duration = dur
			rc.Warmup = dur / 2
			rc.SampleEvery = dur / 2
			wl := collect.DefaultWorkload()
			wl.BootWindow = 5 * sim.Second
			rc.Workload = wl
			env := node.DefaultEnvConfig(seed, rc.TxPowerDBm)
			env.Phy.PathLossExponent = 4.0
			rc.Env = &env
			return []experiment.RunConfig{rc}, nil
		},
		setupReps:    9,
		batchSeconds: 7,
		params: map[string]any{"nodes": cityNodes, "floors": cityFloors, "floor_m": fmt.Sprintf("%dx%d", cityWidthM, cityHeightM),
			"topology_seed": cityTopoSeed, "path_loss_exponent": 4.0, "sim_seconds": citySimSeconds, "boot_window_s": 5},
	}
}

// runOK is every run's answer check: the run dispatched events,
// delivered packets, and a tree formed.
func runOK(r *experiment.Result) bool {
	parented := 0
	for _, p := range r.FinalParents {
		if p >= 0 {
			parented++
		}
	}
	return r.Events > 0 && r.Unique > 0 && r.DeliveryRatio > 0 && parented > 0
}

// simSetup is the product of one set-up: runs with their channel
// precomputes attached, and how long each part took.
type simSetup struct {
	runs       []experiment.RunConfig
	topoS      float64
	precomputS float64
}

// setup generates the topologies and precomputes each distinct
// (topology, phy) cell's channel once, as the experiment pool does for a
// batch. Both are set-up work a user pays before the first run.
func (w *simWorkload) setup(seed uint64) (*simSetup, error) {
	t0 := time.Now()
	runs, err := w.topology(seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	type cell struct {
		tp  *topo.Topology
		phy phy.Params
	}
	cells := make(map[cell]*phy.ChannelPre)
	st := &simSetup{runs: runs}
	for i := range runs {
		env := experiment.EnvConfigFor(runs[i].Topo, runs[i].Seed, runs[i].TxPowerDBm)
		if runs[i].Env != nil {
			env = *runs[i].Env
		}
		k := cell{runs[i].Topo, env.Phy}
		pre, ok := cells[k]
		if !ok {
			pre = phy.PrecomputeGeo(runs[i].Topo, env.Phy)
			cells[k] = pre
		}
		env.ChanPre = pre
		runs[i].Env = &env
	}
	st.topoS, st.precomputS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return st, nil
}

// batch returns batch b: the set-up's runs under the seed's b-th replica
// seed.
func (st *simSetup) batch(seed uint64, b int) []experiment.RunConfig {
	rs := experiment.ReplicaSeeds(seed, b+1)[b]
	out := make([]experiment.RunConfig, len(st.runs))
	for i, rc := range st.runs {
		env := *rc.Env
		env.Seed = rs
		rc.Env, rc.Seed = &env, rs
		out[i] = rc
	}
	return out
}

// simPass is what one pass over the batches measured.
type simPass struct {
	batches int
	runs    int
	failed  int
	simSec  float64
	wall    time.Duration
	batchMS []float64
	// rates are each batch's simulated seconds per wall second; their
	// median is simsec_per_s, so a host stall moves one batch, not the result.
	rates  []float64
	prints []string // experiment.Fingerprint of every run, in order
	means  map[experiment.Protocol]*variantMean
	shards int
	layer  *layerStats
}

// runUntraced runs the given number of batches on the experiment pool.
// Between batches, outside the timed region, the heap is collected and
// returned to the OS, so the peak resident set is one batch's peak rather
// than a sum that depends on when the collector last ran.
func (w *simWorkload) runUntraced(st *simSetup, seed uint64, batches int) *simPass {
	p := &simPass{}
	var shards atomic.Int64
	for b := 0; b < batches; b++ {
		rcs := st.batch(seed, b)
		for i := range rcs {
			rcs[i].EnvMutate = func(env *node.Env) { shards.Store(int64(len(env.Clocks))) }
		}
		debug.FreeOSMemory()
		t := time.Now()
		res := experiment.RunAllWorkers(rcs, w.workers)
		d := time.Since(t)
		p.wall += d
		p.batchMS = append(p.batchMS, msOf(d))
		p.rates = append(p.rates, p.account(w, rcs, res)/d.Seconds())
	}
	p.shards = int(shards.Load())
	return p
}

// batches is how many batches make a run of about seconds on the
// reference machine. The count, not a clock, ends the pass, so every run
// of a seed does the same work however fast the host is that minute.
func (w *simWorkload) batches(seconds float64) int {
	return max(1, int(math.Round(seconds/w.batchSeconds)))
}

// account folds a batch's results into the pass and returns the batch's
// simulated seconds.
func (p *simPass) account(w *simWorkload, rcs []experiment.RunConfig, res []*experiment.Result) float64 {
	p.batches++
	p.runs += len(res)
	if p.means == nil {
		p.means = map[experiment.Protocol]*variantMean{}
	}
	var sec float64
	for i, r := range res {
		if !runOK(r) {
			p.failed++
		}
		m := p.means[r.Protocol]
		if m == nil {
			m = &variantMean{}
			p.means[r.Protocol] = m
		}
		m.costSum, m.deliverySum, m.n = m.costSum+r.Cost, m.deliverySum+r.DeliveryRatio, m.n+1
		sec += r.Duration.Seconds()
		p.prints = append(p.prints, experiment.Fingerprint(rcs[i], r))
	}
	p.simSec += sec
	return sec
}

// layerStats are the per-layer numbers of a traced pass.
type layerStats struct {
	runBusyS      []float64
	poolImbalance []float64
	shardImb      []float64
	events        uint64
	med           phy.MediumStats
	counts        probe.CountSink
	coreCalls     uint64
	coreBusy      time.Duration
	replayFrames  uint64
	replayS       float64
	timerNS       time.Duration // the estimator timer's own cost per call, subtracted from core busy time
}

// txRec is one transmission put on the air: when, by whom, how long.
type txRec struct {
	at   sim.Time
	from int32
	n    int32
}

// runCapture is what the traced run records about one experiment.Run.
type runCapture struct {
	env   *node.Env
	sinks []*probe.CountSink
	calls uint64
	busy  time.Duration
	sched []txRec
}

// instrument returns rc with the traced run's observers attached: a count
// sink on every probe bus, and on serial workloads the estimator timer and
// the transmission capture. All are pure observers.
func (w *simWorkload) instrument(rc experiment.RunConfig, c *runCapture) experiment.RunConfig {
	rc.EnvMutate = func(env *node.Env) {
		c.env = env
		buses := env.Buses
		if len(buses) == 0 {
			buses = []*probe.Bus{env.Probes}
		}
		for _, b := range buses {
			s := &probe.CountSink{}
			b.Attach(s)
			c.sinks = append(c.sinks, s)
		}
		if w.serialOnly {
			clock := env.Clock
			env.Medium.OnTransmit(func(from int, data []byte) {
				c.sched = append(c.sched, txRec{clock.Now(), int32(from), int32(len(data))})
			})
		}
	}
	if w.serialOnly {
		rc.WrapEstimator = func(_ packet.Addr, est core.LinkEstimator) core.LinkEstimator {
			return &timedEstimator{LinkEstimator: est, c: c}
		}
	}
	return rc
}

// runTraced runs the same batches as the untraced pass, each run timed
// and instrumented, then replays every captured transmission schedule
// through a bare medium. Each run's counters are folded in as its batch
// ends, so only the schedules outlive it.
func (w *simWorkload) runTraced(st *simSetup, seed uint64, batches int, tr *tracer, parent uint64) (*simPass, error) {
	p := &simPass{layer: &layerStats{}}
	ls := p.layer
	if w.serialOnly {
		ls.timerNS = timerOverhead()
	}
	type pending struct {
		span  span
		rc    experiment.RunConfig
		sched []txRec
		tx    uint64 // frames the run put on air
		core  time.Duration
	}
	var replays []pending
	for b := 0; b < batches; b++ {
		rcs := st.batch(seed, b)
		debug.FreeOSMemory()
		caps := make([]*runCapture, len(rcs))
		res := make([]*experiment.Result, len(rcs))
		spans := make([]span, len(rcs))
		bid := tr.id()
		bStart := time.Now()
		jobs := make(chan int)
		var wg sync.WaitGroup
		workers := min(w.workers, len(rcs))
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					caps[i] = &runCapture{}
					rc := w.instrument(rcs[i], caps[i])
					t := time.Now()
					res[i] = experiment.Run(rc)
					e := time.Now()
					spans[i] = span{Parent: bid, Name: "experiment.Run", Start: tr.since(t), End: tr.since(e)}
				}
			}()
		}
		for i := range rcs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		bEnd := time.Now()
		p.wall += bEnd.Sub(bStart)
		p.batchMS = append(p.batchMS, msOf(bEnd.Sub(bStart)))
		tr.add(span{ID: bid, Parent: parent, Name: "experiment.batch", Layer: "experiment",
			Start: tr.since(bStart), End: tr.since(bEnd)})
		p.account(w, rcs, res)
		var busy float64
		for i, c := range caps {
			d := float64(spans[i].End-spans[i].Start) / 1e9
			busy += d
			ls.runBusyS = append(ls.runBusyS, d)
			ms := c.env.Medium.Stats
			ls.events += res[i].Events
			ls.med.Transmissions += ms.Transmissions
			ls.med.Delivered += ms.Delivered
			ls.med.DroppedBER += ms.DroppedBER
			ls.med.DroppedCollision += ms.DroppedCollision
			ls.shardImb = append(ls.shardImb, shardImbalance(c.env))
			if c.env.Sharded() {
				p.shards = len(c.env.Clocks)
			}
			for _, s := range c.sinks {
				addCounts(&ls.counts, s)
			}
			sp := spans[i]
			sp.Layer = "stack+phy+core"
			sp.Counts = map[string]float64{"sim.events": float64(res[i].Events), "phy.frames": float64(ms.Transmissions)}
			if !w.serialOnly {
				tr.add(sp)
				continue
			}
			core := c.busy - time.Duration(c.calls)*ls.timerNS
			ls.coreCalls += c.calls
			ls.coreBusy += core
			sp.Counts["core.calls"] = float64(c.calls)
			replays = append(replays, pending{sp, rcs[i], c.sched, ms.Transmissions, core})
		}
		ls.poolImbalance = append(ls.poolImbalance, bEnd.Sub(bStart).Seconds()/(busy/float64(workers)))
	}
	for i, r := range replays {
		rs := tr.id()
		rStart := time.Now()
		frames, dur := replayPhy(r.sched, r.rc)
		tr.add(span{ID: rs, Parent: parent, Name: "phy.replay", Layer: "phy", Measure: true,
			Start: tr.since(rStart), End: tr.since(time.Now()), Counts: map[string]float64{"phy.frames": float64(frames)}})
		if frames != uint64(len(r.sched)) || frames != r.tx {
			return nil, fmt.Errorf("phy replay of run %d put %d frames on air, the run %d", i, frames, r.tx)
		}
		ls.replayFrames += frames
		ls.replayS += dur.Seconds()
		r.span.Layer = "stack"
		r.span.Carve = map[string]float64{"core": r.core.Seconds(), "phy": dur.Seconds()}
		tr.add(r.span)
	}
	return p, nil
}

// shardImbalance is the busiest shard's event count over the mean; 1.0 on
// the serial loop.
func shardImbalance(env *node.Env) float64 {
	if !env.Sharded() {
		return 1
	}
	var sum, top uint64
	for _, c := range env.Clocks {
		e := c.Events()
		sum += e
		top = max(top, e)
	}
	if sum == 0 {
		return 1
	}
	return float64(top) / (float64(sum) / float64(len(env.Clocks)))
}

func addCounts(dst, s *probe.CountSink) {
	dst.DataTx += s.DataTx
	dst.DataAcked += s.DataAcked
	dst.CCAGiveUps += s.CCAGiveUps
	dst.BeaconsSent += s.BeaconsSent
	dst.ParentChanges += s.ParentChanges
	dst.Generated += s.Generated
	dst.Delivered += s.Delivered
}

// replayPhy puts a run's transmission schedule back on the air through a
// bare clock and medium built like the run's (same channel precompute,
// seed and radio parameters) with no-op receivers, and returns how many
// frames it put on air and how long the replay took. Each transmission is
// scheduled from the one before it, so a radio's own end-of-frame event
// always precedes its next start at the same instant, as in the run.
func replayPhy(sched []txRec, rc experiment.RunConfig) (uint64, time.Duration) {
	cfg := *rc.Env
	pre := cfg.ChanPre
	clock := sim.New(rc.Seed)
	seeds := sim.NewSeedSpace(rc.Seed)
	m := phy.NewMedium(clock, pre.NewChannel(seeds), cfg.Radio, cfg.LQI, seeds)
	for i := 0; i < m.N(); i++ {
		m.Radio(i).SetTxPower(rc.TxPowerDBm)
		m.Radio(i).OnReceive(func([]byte, phy.RxInfo) {})
	}
	var buf []byte
	for _, r := range sched {
		if int(r.n) > len(buf) {
			buf = make([]byte, r.n)
		}
	}
	next := 0
	var fire func()
	fire = func() {
		for next < len(sched) && sched[next].at == clock.Now() {
			r := sched[next]
			m.Radio(int(r.from)).Transmit(buf[:r.n])
			next++
		}
		if next < len(sched) {
			clock.At(sched[next].at, fire)
		}
	}
	if len(sched) > 0 {
		clock.At(sched[0].at, fire)
	}
	t := time.Now()
	clock.RunUntil(rc.Duration + sim.Second)
	return m.Stats.Transmissions, time.Since(t)
}

// timedEstimator is a pass-through estimator decorator that counts and
// times every call the stack makes into the estimator. One run's nodes
// share a capture; serial runs call them from one goroutine.
type timedEstimator struct {
	core.LinkEstimator
	c *runCapture
}

func (e *timedEstimator) done(t time.Time) {
	e.c.busy += time.Since(t)
	e.c.calls++
}

// nopEstimator stands in for an estimator whose TxResult costs nothing.
type nopEstimator struct{ core.LinkEstimator }

func (nopEstimator) TxResult(packet.Addr, bool) {}

// timerOverhead measures what the timer itself adds to one timed call:
// the busy time per call of a timed no-op, the least of several tries.
func timerOverhead() time.Duration {
	const calls = 1 << 16
	best := time.Duration(math.MaxInt64)
	for try := 0; try < 5; try++ {
		c := &runCapture{}
		e := &timedEstimator{LinkEstimator: nopEstimator{}, c: c}
		for i := 0; i < calls; i++ {
			e.TxResult(0, false)
		}
		best = min(best, c.busy/calls)
	}
	return best
}

func (e *timedEstimator) Table() *core.Table {
	t := time.Now()
	defer e.done(t)
	return e.LinkEstimator.Table()
}

func (e *timedEstimator) Quality(addr packet.Addr) (float64, bool) {
	t := time.Now()
	defer e.done(t)
	return e.LinkEstimator.Quality(addr)
}

func (e *timedEstimator) Pin(addr packet.Addr) bool {
	t := time.Now()
	defer e.done(t)
	return e.LinkEstimator.Pin(addr)
}

func (e *timedEstimator) Unpin(addr packet.Addr) bool {
	t := time.Now()
	defer e.done(t)
	return e.LinkEstimator.Unpin(addr)
}

func (e *timedEstimator) Neighbors() []packet.Addr {
	t := time.Now()
	defer e.done(t)
	return e.LinkEstimator.Neighbors()
}

func (e *timedEstimator) OnBeacon(src packet.Addr, le *packet.LEFrame, meta core.RxMeta, now sim.Time) ([]byte, bool) {
	t := time.Now()
	defer e.done(t)
	return e.LinkEstimator.OnBeacon(src, le, meta, now)
}

func (e *timedEstimator) TxResult(dest packet.Addr, acked bool) {
	t := time.Now()
	defer e.done(t)
	e.LinkEstimator.TxResult(dest, acked)
}

func (e *timedEstimator) OnOverhear(src packet.Addr, meta core.RxMeta, now sim.Time) {
	t := time.Now()
	defer e.done(t)
	e.LinkEstimator.OnOverhear(src, meta, now)
}

func (e *timedEstimator) Age(maxSilence sim.Time, now sim.Time) {
	t := time.Now()
	defer e.done(t)
	e.LinkEstimator.Age(maxSilence, now)
}

func (e *timedEstimator) MakeBeacon(netPayload []byte) *packet.LEFrame {
	t := time.Now()
	defer e.done(t)
	return e.LinkEstimator.MakeBeacon(netPayload)
}

// check is a pass's answer check: every run's, then the replicated
// figure's where the workload is Figure 6. A failed figure counts the
// pass's 4B runs as failed.
func (w *simWorkload) check(p *simPass) error {
	if p.failed > 0 {
		return fmt.Errorf("%d of %d runs failed the answer check", p.failed, p.runs)
	}
	if w.figure {
		if err := checkFigure6(p.means); err != nil {
			if m := p.means[experiment.Proto4B]; m != nil {
				p.failed += m.n // the claim is about the 4B runs
			}
			return err
		}
	}
	return nil
}
