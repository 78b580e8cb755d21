package experiment

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"fourbit/internal/core"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// The run scheduler. Every figure of the evaluation is a batch of
// *independent* collection simulations — each Run builds its own clock,
// channel and seed space, and shares only the immutable Topology — so the
// batch parallelizes perfectly. RunAllWorkers executes a batch on a bounded
// worker pool and returns results in submission order; because the outcome
// of a run depends only on its RunConfig (seeds are derived per run, never
// from shared streams), a batch's results are byte-identical whether it
// executes serially, on two workers, or on sixteen.

// DefaultWorkers returns the default worker-pool width: one worker per
// schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// shareChannelPre returns a copy of the batch in which every run whose
// environment does not already carry a channel precompute gets one shared
// per (topology, phy-params) cell: the O(n²·log10) channel geometry is
// built once per cell on the submitting goroutine and then read — never
// written — by every worker instantiating its per-seed channel from it.
// Transmit power is deliberately absent from the cell key: it never enters
// channel construction (radios apply it per frame), so a power sweep's
// cells all share one precompute.
func shareChannelPre(rcs []RunConfig) []RunConfig {
	type cellKey struct {
		tp  *topo.Topology
		phy phy.Params
	}
	out := make([]RunConfig, len(rcs))
	copy(out, rcs)
	pres := make(map[cellKey]*phy.ChannelPre)
	for i := range out {
		cfg := resolveEnv(out[i])
		if cfg.ChanPre != nil {
			continue
		}
		k := cellKey{out[i].Topo, cfg.Phy}
		pre, ok := pres[k]
		if !ok {
			pre = phy.PrecomputeGeo(out[i].Topo, cfg.Phy)
			pres[k] = pre
		}
		cfg.ChanPre = pre
		cfgCopy := cfg
		out[i].Env = &cfgCopy
	}
	return out
}

// RunAllWorkers executes the runs on a pool of at most workers goroutines
// (values < 2 mean serial execution in the calling goroutine). Results are
// returned in submission order and are independent of the worker count.
func RunAllWorkers(rcs []RunConfig, workers int) []*Result {
	rcs = shareChannelPre(rcs)
	results := make([]*Result, len(rcs))
	if workers > len(rcs) {
		workers = len(rcs)
	}
	if workers <= 1 {
		for i := range rcs {
			results[i] = Run(rcs[i])
		}
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = Run(rcs[i])
			}
		}()
	}
	for i := range rcs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// Stat is a mean with its sample standard deviation (0 for a single run).
type Stat struct {
	Mean   float64
	Stddev float64
}

func (s Stat) String() string { return fmt.Sprintf("%.3f ±%.3f", s.Mean, s.Stddev) }

func newStat(vs []float64) Stat {
	if len(vs) == 0 {
		return Stat{}
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	if len(vs) < 2 {
		return Stat{Mean: mean}
	}
	var ss float64
	for _, v := range vs {
		d := v - mean
		ss += d * d
	}
	return Stat{Mean: mean, Stddev: math.Sqrt(ss / float64(len(vs)-1))}
}

// Replicated is the outcome of one RunConfig replicated across independent
// seeds: the per-seed results plus mean/stddev aggregates of the headline
// metrics. This is how figure numbers gain confidence intervals — the
// paper's single-testbed-run values correspond to one seed.
type Replicated struct {
	Protocol Protocol
	// Estimator is the link-estimator kind the runs used (empty for the
	// default four-bit path and for MultiHopLQI), taken from the runs
	// themselves so replicated output is attributable to its estimator.
	Estimator  core.EstimatorKind
	TxPowerDBm float64
	Seeds      []uint64
	Runs       []*Result

	Cost      Stat
	Delivery  Stat
	MeanDepth Stat
	MeanHops  Stat
	DataTx    Stat
	BeaconTx  Stat

	// Estimator-internal counters (zero for MultiHopLQI, which has no link
	// table): table dynamics and window/lottery activity, aggregated like
	// the headline metrics so sweeps can compare estimator behavior.
	EstBeacons  Stat
	EstInserted Stat
	EstReplaced Stat
	EstRejected Stat
	EstLottery  Stat
}

// ReplicaSeeds derives n independent run seeds from master through the
// deterministic seed space: replica i of a given master is always the same
// seed, and distinct replicas are decorrelated by the stream hash.
func ReplicaSeeds(master uint64, n int) []uint64 {
	ss := sim.NewSeedSpace(master)
	out := make([]uint64, n)
	for i := range out {
		out[i] = ss.Stream(fmt.Sprintf("replica/%d", i)).Uint64()
	}
	return out
}

// Replicas expands rc into n copies under the seeds ReplicaSeeds derives
// from rc.Seed; rcs[i] runs under seeds[i].
func Replicas(rc RunConfig, n int) (rcs []RunConfig, seeds []uint64) {
	seeds = ReplicaSeeds(rc.Seed, n)
	rcs = make([]RunConfig, n)
	for i, seed := range seeds {
		rcs[i] = rc
		rcs[i].Seed = seed
	}
	return rcs, seeds
}

// ReplicateWorkers runs rc under nSeeds seeds derived from rc.Seed on a
// pool of workers and aggregates the results.
func ReplicateWorkers(rc RunConfig, nSeeds int, workers int) *Replicated {
	rcs, seeds := Replicas(rc, nSeeds)
	return Aggregate(rc.Protocol, rc.TxPowerDBm, seeds, RunAllWorkers(rcs, workers))
}

// Aggregate assembles a Replicated from runs executed elsewhere (the sweep
// engine batches every cell's replicas into one flat RunAllWorkers batch and
// regroups through this). seeds[i] must be the seed runs[i] executed under.
func Aggregate(p Protocol, txPowerDBm float64, seeds []uint64, runs []*Result) *Replicated {
	rep := &Replicated{
		Protocol:   p,
		TxPowerDBm: txPowerDBm,
		Seeds:      seeds,
		Runs:       runs,
	}
	if len(runs) > 0 {
		rep.Estimator = runs[0].Estimator
	}
	collect := func(f func(*Result) float64) Stat {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = f(r)
		}
		return newStat(vs)
	}
	rep.Cost = collect(func(r *Result) float64 { return r.Cost })
	rep.Delivery = collect(func(r *Result) float64 { return r.DeliveryRatio })
	rep.MeanDepth = collect(func(r *Result) float64 { return r.MeanDepth })
	rep.MeanHops = collect(func(r *Result) float64 { return r.MeanHops })
	rep.DataTx = collect(func(r *Result) float64 { return float64(r.DataTx) })
	rep.BeaconTx = collect(func(r *Result) float64 { return float64(r.BeaconTx) })
	rep.EstBeacons = collect(func(r *Result) float64 { return float64(r.EstBeaconsIn) })
	rep.EstInserted = collect(func(r *Result) float64 { return float64(r.EstInserted) })
	rep.EstReplaced = collect(func(r *Result) float64 { return float64(r.EstReplaced) })
	rep.EstRejected = collect(func(r *Result) float64 { return float64(r.EstRejected) })
	rep.EstLottery = collect(func(r *Result) float64 { return float64(r.EstLotteryWins) })
	return rep
}

// Fprint renders the replication summary. A non-default estimator kind is
// named in the header (the default path prints exactly as it always has).
func (r *Replicated) Fprint(w io.Writer) {
	label := r.Protocol.String()
	if r.Estimator != "" {
		label += " (estimator " + string(r.Estimator) + ")"
	}
	fmt.Fprintf(w, "%s at %.0f dBm over %d seeds:\n", label, r.TxPowerDBm, len(r.Runs))
	fmt.Fprintf(w, "  cost      %s\n", r.Cost)
	fmt.Fprintf(w, "  delivery  %.3f ±%.3f\n", r.Delivery.Mean, r.Delivery.Stddev)
	fmt.Fprintf(w, "  depth     %s\n", r.MeanDepth)
	fmt.Fprintf(w, "  data tx   %.0f ±%.0f\n", r.DataTx.Mean, r.DataTx.Stddev)
	fmt.Fprintf(w, "  beacons   %.0f ±%.0f\n", r.BeaconTx.Mean, r.BeaconTx.Stddev)
}

// ParseProtocol maps the CLI names (as printed by Protocol.String) back to
// protocol identifiers.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range []Protocol{Proto4B, ProtoCTP, ProtoCTPUnidir, ProtoCTPWhite, ProtoCTPUnlimited, ProtoMultiHopLQI} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown protocol %q", s)
}
