// Package node assembles full protocol stacks — radio, MAC, link estimator,
// routing, collection application — for every node of a topology, and is
// the only place where the layers are wired together (the narrow-interface
// discipline the paper argues for: each layer sees only its bits).
package node

import (
	"fmt"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/lqirouter"
	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// EnvConfig configures the shared simulation environment.
type EnvConfig struct {
	Seed       uint64
	TxPowerDBm float64
	Phy        phy.Params
	Radio      phy.RadioParams
	LQI        phy.LQIParams
	MAC        mac.Params

	// ChanPre, when non-nil, is the shared immutable channel precompute to
	// instantiate the per-seed channel from, skipping the O(n²·log10)
	// geometry rebuild. It must have been built from this topology's
	// matrices and exactly these Phy params (NewEnv verifies the params);
	// the batch runners set it once per sweep cell and share it read-only
	// across the worker pool.
	ChanPre *phy.ChannelPre

	// WrapEstimator, when non-nil, decorates each node's link estimator
	// before the router sees it — the hook the serving layer's feed
	// recorder uses to tap a node's estimator event stream out of a
	// simulation. The decorator must delegate every call (a pass-through
	// wrapper keeps the run bit-identical); it runs after SetProbes, so
	// the inner estimator is fully wired when wrapped.
	WrapEstimator func(addr packet.Addr, est core.LinkEstimator) core.LinkEstimator

	// ExtraRoots lists additional collection sinks beyond the topology
	// root. Every root runs a root protocol instance and no traffic
	// source; deliveries at any sink count toward the shared ledger.
	ExtraRoots []int
}

// DefaultEnvConfig returns the standard environment at the given power.
func DefaultEnvConfig(seed uint64, txPowerDBm float64) EnvConfig {
	return EnvConfig{
		Seed:       seed,
		TxPowerDBm: txPowerDBm,
		Phy:        phy.DefaultParams(),
		Radio:      phy.DefaultRadioParams(),
		LQI:        phy.DefaultLQIParams(),
		MAC:        mac.DefaultParams(),
	}
}

// Env is the shared simulation substrate: clock, channel, medium, and the
// run's probe bus (one subscription point for every layer's typed events;
// with no sinks attached the bus is inert and the run is byte-identical to
// an unprobed one).
type Env struct {
	Clock  *sim.Simulator
	Seeds  *sim.SeedSpace
	Topo   *topo.Topology
	Chan   *phy.Channel
	Medium *phy.Medium
	Probes *probe.Bus
	Cfg    EnvConfig

	// Clocks and Buses stay nil and Sharded reports false: the simulator
	// has one serial event loop, so Clock and Probes are the run's only
	// wheel and bus. They are kept only for the fourbitbench module, which
	// reads them, until its next benchmark change drops them.
	Clocks []*sim.Simulator
	Buses  []*probe.Bus
}

// Sharded reports false; see Clocks.
func (env *Env) Sharded() bool { return false }

// IsRoot reports whether node i is a collection sink (the topology root
// or one of EnvConfig.ExtraRoots).
func (env *Env) IsRoot(i int) bool {
	if i == env.Topo.Root {
		return true
	}
	for _, r := range env.Cfg.ExtraRoots {
		if r == i {
			return true
		}
	}
	return false
}

// Roots returns every collection sink, topology root first.
func (env *Env) Roots() []int {
	return append([]int{env.Topo.Root}, env.Cfg.ExtraRoots...)
}

// NewEnv builds the environment over a topology.
func NewEnv(t *topo.Topology, cfg EnvConfig) *Env {
	for _, r := range cfg.ExtraRoots {
		if r < 0 || r >= t.N() || r == t.Root {
			panic(fmt.Sprintf("node: extra root %d invalid (n=%d, root=%d)", r, t.N(), t.Root))
		}
	}
	clock := sim.New(cfg.Seed)
	seeds := sim.NewSeedSpace(cfg.Seed)
	bus := probe.NewBus(clock)
	var ch *phy.Channel
	if cfg.ChanPre != nil {
		if cfg.ChanPre.N() != t.N() || cfg.ChanPre.Params() != cfg.Phy {
			panic("node: EnvConfig.ChanPre does not match topology/phy params")
		}
		ch = cfg.ChanPre.NewChannel(seeds)
	} else {
		// PrecomputeGeo works from per-pair geometry accessors, so a
		// city-scale topology never materializes O(n²) distance matrices;
		// below the sparse threshold it is bit-identical to the historical
		// Matrices+NewChannel path.
		ch = phy.PrecomputeGeo(t, cfg.Phy).NewChannel(seeds)
	}
	med := phy.NewMedium(clock, ch, cfg.Radio, cfg.LQI, seeds)
	for i := 0; i < med.N(); i++ {
		med.Radio(i).SetTxPower(cfg.TxPowerDBm)
	}
	return &Env{Clock: clock, Seeds: seeds, Topo: t, Chan: ch, Medium: med, Probes: bus, Cfg: cfg}
}

// CTPNetwork is a booted network of CTP nodes plus its workload and ledger.
type CTPNetwork struct {
	Env     *Env
	Nodes   []*ctp.Node
	MACs    []*mac.MAC
	Ests    []core.LinkEstimator
	Sources []*collect.Source
	Ledger  *collect.Ledger
}

// BuildCTP assembles a CTP network over the default (four-bit family) link
// estimator; see BuildCTPKind for the estimator-pluggable form.
func BuildCTP(env *Env, ctpCfg ctp.Config, estCfg core.Config, wl collect.Workload) *CTPNetwork {
	return BuildCTPKind(env, ctpCfg, estCfg, core.KindFourBit, wl)
}

// BuildCTPKind assembles one CTP node per topology position (the topology
// root becomes the collection root) over a link estimator of the given
// kind, boots them staggered over the workload's boot window, and starts
// the traffic sources. Every estimator draws from the same per-node
// "est/<i>" seed stream regardless of kind, so switching kinds perturbs no
// other randomness in the run. An unknown kind panics — callers validate
// selectors at the configuration boundary (core.ParseEstimatorKind).
func BuildCTPKind(env *Env, ctpCfg ctp.Config, estCfg core.Config, kind core.EstimatorKind, wl collect.Workload) *CTPNetwork {
	n := env.Topo.N()
	net := &CTPNetwork{Env: env, Ledger: collect.NewLedger()}
	for i := 0; i < n; i++ {
		addr := packet.Addr(i)
		m := mac.New(env.Clock, env.Medium.Radio(i), addr, env.Cfg.MAC,
			env.Seeds.Stream(fmt.Sprintf("mac/%d", i)))
		est, err := core.NewKind(kind, addr, estCfg, nil, env.Seeds.Stream(fmt.Sprintf("est/%d", i)))
		if err != nil {
			panic("node: " + err.Error())
		}
		est.SetProbes(env.Probes)
		if env.Cfg.WrapEstimator != nil {
			est = env.Cfg.WrapEstimator(addr, est)
		}
		cn := ctp.New(env.Clock, m, est, env.IsRoot(i), ctpCfg,
			env.Seeds.Stream(fmt.Sprintf("ctp/%d", i)))
		net.Nodes = append(net.Nodes, cn)
		net.MACs = append(net.MACs, m)
		net.Ests = append(net.Ests, est)
	}
	for _, sink := range env.Roots() {
		net.Nodes[sink].OnDeliver(func(origin packet.Addr, _ uint8, thl uint8, data []byte) {
			if seq, err := collect.DecodeReading(data); err == nil {
				net.Ledger.NoteDelivered(origin, seq, thl)
				env.Probes.Deliver(origin, seq, thl)
			}
		})
	}
	bootRng := env.Seeds.Stream("boot")
	for i := 0; i < n; i++ {
		i := i
		boot := bootRng.UniformTime(0, wl.BootWindow)
		env.Clock.At(boot, net.Nodes[i].Start)
		if env.IsRoot(i) {
			continue
		}
		src := collect.NewSource(env.Clock, packet.Addr(i), wl,
			env.Seeds.Stream(fmt.Sprintf("src/%d", i)),
			net.Nodes[i].Send, net.Ledger)
		src.Start(boot)
		net.Sources = append(net.Sources, src)
	}
	return net
}

// Parents returns the current parent index per node (-1 when routeless),
// ready for metrics.TreeDepths. Every sink reads as -1.
func (net *CTPNetwork) Parents() []int {
	out := make([]int, len(net.Nodes))
	for i, nd := range net.Nodes {
		p := nd.Parent()
		if net.Env.IsRoot(i) || p == packet.None {
			out[i] = -1
			continue
		}
		out[i] = int(p)
	}
	return out
}

// DataTransmissions sums unicast data transmissions across all MACs — the
// numerator of the paper's cost metric.
func (net *CTPNetwork) DataTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxData
	}
	return sum
}

// BeaconTransmissions sums broadcast transmissions across all MACs.
func (net *CTPNetwork) BeaconTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxBeacons
	}
	return sum
}

// LQINetwork is a booted network of MultiHopLQI nodes.
type LQINetwork struct {
	Env     *Env
	Nodes   []*lqirouter.Node
	MACs    []*mac.MAC
	Sources []*collect.Source
	Ledger  *collect.Ledger
}

// BuildLQI assembles a MultiHopLQI network, mirroring BuildCTP.
func BuildLQI(env *Env, cfg lqirouter.Config, wl collect.Workload) *LQINetwork {
	n := env.Topo.N()
	net := &LQINetwork{Env: env, Ledger: collect.NewLedger()}
	for i := 0; i < n; i++ {
		addr := packet.Addr(i)
		m := mac.New(env.Clock, env.Medium.Radio(i), addr, env.Cfg.MAC,
			env.Seeds.Stream(fmt.Sprintf("mac/%d", i)))
		ln := lqirouter.New(env.Clock, m, env.IsRoot(i), cfg,
			env.Seeds.Stream(fmt.Sprintf("lqi/%d", i)))
		net.Nodes = append(net.Nodes, ln)
		net.MACs = append(net.MACs, m)
	}
	for _, sink := range env.Roots() {
		net.Nodes[sink].OnDeliver(func(origin packet.Addr, _ uint16, hops uint8, data []byte) {
			if seq, err := collect.DecodeReading(data); err == nil {
				net.Ledger.NoteDelivered(origin, seq, hops)
				env.Probes.Deliver(origin, seq, hops)
			}
		})
	}
	bootRng := env.Seeds.Stream("boot")
	for i := 0; i < n; i++ {
		i := i
		boot := bootRng.UniformTime(0, wl.BootWindow)
		env.Clock.At(boot, net.Nodes[i].Start)
		if env.IsRoot(i) {
			continue
		}
		src := collect.NewSource(env.Clock, packet.Addr(i), wl,
			env.Seeds.Stream(fmt.Sprintf("src/%d", i)),
			net.Nodes[i].Send, net.Ledger)
		src.Start(boot)
		net.Sources = append(net.Sources, src)
	}
	return net
}

// Parents returns the current parent index per node (-1 when routeless).
// Every sink reads as -1.
func (net *LQINetwork) Parents() []int {
	out := make([]int, len(net.Nodes))
	for i, nd := range net.Nodes {
		p := nd.Parent()
		if net.Env.IsRoot(i) || p == packet.None {
			out[i] = -1
			continue
		}
		out[i] = int(p)
	}
	return out
}

// DataTransmissions sums unicast data transmissions across all MACs.
func (net *LQINetwork) DataTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxData
	}
	return sum
}

// BeaconTransmissions sums broadcast transmissions across all MACs.
func (net *LQINetwork) BeaconTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxBeacons
	}
	return sum
}
