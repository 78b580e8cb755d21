package scenario

import (
	"fmt"
	"io"

	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/metrics"
	"fourbit/internal/topo"
)

// The paper's RunConfig-batch figures (Figures 2, 6, 7/8, the headline
// table) and the estimator comparison, each defined once, here: its spec
// list, its result type, the regrouping of the batch's results into that
// type, and its Fprint. internal/experiment only executes the compiled
// batches (RunAllWorkers) and supplies the render helpers. The rendered
// stdout of every figure is pinned by TestGoldenFigures. Figure 3 is not a
// RunConfig batch (it instruments one link mid-run) and stays a bespoke
// harness in internal/experiment.

// figureSpec is the shared 25-minute testbed scenario scaled to minutes.
func figureSpec(protocol, kind string, seed uint64, minutes float64) Spec {
	return Spec{
		Protocol:    protocol,
		Topology:    TopoSpec{Kind: kind},
		Seed:        seed,
		DurationMin: minutes,
	}
}

// BuildRuns compiles a spec batch into experiment runs.
func BuildRuns(specs []Spec) ([]experiment.RunConfig, error) {
	rcs := make([]experiment.RunConfig, len(specs))
	for i := range specs {
		rc, err := specs[i].RunConfig()
		if err != nil {
			return nil, err
		}
		rcs[i] = rc
	}
	return rcs, nil
}

// mustRuns backs the figure runners: the presets here are pinned valid by
// tests, so an error is a programming bug, not an input problem.
func mustRuns(specs []Spec) []experiment.RunConfig {
	rcs, err := BuildRuns(specs)
	if err != nil {
		panic(err)
	}
	return rcs
}

// ---------------------------------------------------------------------------
// Figure 2: routing trees and cost on the 85-node testbed for CTP (10-entry
// table), MultiHopLQI, and CTP with an unrestricted table. Paper values:
// cost 3.14 / 2.28 / 1.86 — the orderings, not the absolute numbers, are
// the reproduction target.
// ---------------------------------------------------------------------------

// Fig2Specs is Figure 2: CTP(10), MultiHopLQI and CTP-unlimited on Mirage
// at 0 dBm.
func Fig2Specs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, p := range []string{"CTP", "MultiHopLQI", "CTP-unlimited"} {
		specs = append(specs, figureSpec(p, "mirage", seed, minutes))
	}
	return specs
}

// Fig2Result holds the three runs of Figure 2.
type Fig2Result struct {
	Topo *topo.Topology
	Runs []*experiment.Result // CTP, MultiHopLQI, CTP-unlimited
}

// RunFig2 executes Figure 2 on a pool of workers.
func RunFig2(seed uint64, minutes float64, workers int) *Fig2Result {
	rcs := mustRuns(Fig2Specs(seed, minutes))
	return &Fig2Result{Topo: rcs[0].Topo, Runs: experiment.RunAllWorkers(rcs, workers)}
}

// Fprint renders the Figure 2 trees and cost table.
func (r *Fig2Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: routing trees on %s (root bottom-left; digits are tree depth)\n\n", r.Topo.Name)
	paper := map[experiment.Protocol]float64{
		experiment.ProtoCTP: 3.14, experiment.ProtoMultiHopLQI: 2.28, experiment.ProtoCTPUnlimited: 1.86,
	}
	for _, res := range r.Runs {
		fmt.Fprintf(w, "(%s)  cost = %.2f  (paper: %.2f)   depth-histogram: %s\n",
			res.Protocol, res.Cost, paper[res.Protocol],
			experiment.DepthHistogram(res.FinalDepths, r.Topo.Root))
		fmt.Fprintln(w, experiment.RenderTree(r.Topo, res.FinalParents, 64, 18))
	}
	fmt.Fprintf(w, "%-14s %8s %8s %10s %9s\n", "protocol", "cost", "depth", "delivery", "dup")
	for _, res := range r.Runs {
		fmt.Fprintf(w, "%-14s %8.2f %8.2f %9.1f%% %9d\n",
			res.Protocol.String(), res.Cost, res.MeanDepth, res.DeliveryRatio*100, res.Duplicates)
	}
}

// ---------------------------------------------------------------------------
// Figure 6: the estimation design space — cost vs average tree depth for
// CTP, CTP+unidir (ack bit), CTP+white/compare, 4B and MultiHopLQI on the
// Mirage testbed at 0 dBm.
// ---------------------------------------------------------------------------

// Fig6Specs is Figure 6: the five design-space variants on Mirage.
func Fig6Specs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, p := range []string{"CTP", "CTP+unidir", "CTP+white", "4B", "MultiHopLQI"} {
		specs = append(specs, figureSpec(p, "mirage", seed, minutes))
	}
	return specs
}

// Fig6Result holds the five design-space runs.
type Fig6Result struct {
	Topo *topo.Topology
	Runs []*experiment.Result
}

// RunFig6 executes Figure 6 on a pool of workers.
func RunFig6(seed uint64, minutes float64, workers int) *Fig6Result {
	rcs := mustRuns(Fig6Specs(seed, minutes))
	return &Fig6Result{Topo: rcs[0].Topo, Runs: experiment.RunAllWorkers(rcs, workers)}
}

// Fprint renders the Figure 6 scatter as a table (cost vs depth).
func (r *Fig6Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: link-estimation design space on %s (0 dBm)\n", r.Topo.Name)
	fmt.Fprintf(w, "%-14s %10s %12s %10s\n", "variant", "cost", "avg depth", "delivery")
	for _, res := range r.Runs {
		fmt.Fprintf(w, "%-14s %10.2f %12.2f %9.1f%%\n",
			res.Protocol.String(), res.Cost, res.MeanDepth, res.DeliveryRatio*100)
	}
	base := r.Runs[0] // plain CTP
	fb := r.byProto(experiment.Proto4B)
	lqi := r.byProto(experiment.ProtoMultiHopLQI)
	if base != nil && fb != nil && base.Cost > 0 {
		fmt.Fprintf(w, "\n4B cost vs CTP: %+.0f%%  (paper: -45%%)\n", 100*(fb.Cost-base.Cost)/base.Cost)
	}
	if lqi != nil && fb != nil && lqi.Cost > 0 {
		fmt.Fprintf(w, "4B cost vs MultiHopLQI: %+.0f%%  (paper: -29%%)\n", 100*(fb.Cost-lqi.Cost)/lqi.Cost)
	}
}

func (r *Fig6Result) byProto(p experiment.Protocol) *experiment.Result {
	for _, res := range r.Runs {
		if res.Protocol == p {
			return res
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figures 7 and 8: power sweep (0, -10, -20 dBm) of 4B vs MultiHopLQI on
// Mirage. Figure 7 reports cost and depth per power; Figure 8 the per-node
// delivery-ratio boxplots of the same runs.
// ---------------------------------------------------------------------------

// PowerSweepPowers is the transmit-power axis of Figures 7 and 8.
var PowerSweepPowers = []float64{0, -10, -20}

// PowerSweepSpecs is the batch shared by Figures 7 and 8: (4B,
// MultiHopLQI) at each power of PowerSweepPowers, interleaved in that
// order. RunPowerSweep regroups the results by this order.
func PowerSweepSpecs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, pw := range PowerSweepPowers {
		for _, p := range []string{"4B", "MultiHopLQI"} {
			s := figureSpec(p, "mirage", seed, minutes)
			s.TxPowerDBm = pw
			specs = append(specs, s)
		}
	}
	return specs
}

// PowerSweepResult holds the 3x2 runs shared by Figures 7 and 8.
type PowerSweepResult struct {
	Topo   *topo.Topology
	Powers []float64
	FB     []*experiment.Result // 4B, by power
	LQI    []*experiment.Result // MultiHopLQI, by power
}

// RunPowerSweep executes the Figure 7/8 batch on a pool of workers.
func RunPowerSweep(seed uint64, minutes float64, workers int) *PowerSweepResult {
	rcs := mustRuns(PowerSweepSpecs(seed, minutes))
	runs := experiment.RunAllWorkers(rcs, workers)
	out := &PowerSweepResult{Topo: rcs[0].Topo, Powers: PowerSweepPowers}
	for i := range out.Powers {
		out.FB = append(out.FB, runs[2*i])
		out.LQI = append(out.LQI, runs[2*i+1])
	}
	return out
}

// FprintFig7 renders cost and depth per power level.
func (r *PowerSweepResult) FprintFig7(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: cost and average depth vs transmit power on %s\n", r.Topo.Name)
	fmt.Fprintf(w, "%8s  %-12s %8s %8s %14s\n", "power", "protocol", "cost", "depth", "cost-vs-depth")
	for i, pw := range r.Powers {
		for _, res := range []*experiment.Result{r.FB[i], r.LQI[i]} {
			excess := 0.0
			if res.MeanDepth > 0 {
				excess = 100 * (res.Cost - res.MeanDepth) / res.MeanDepth
			}
			fmt.Fprintf(w, "%6.0fdBm  %-12s %8.2f %8.2f %+13.0f%%\n",
				pw, res.Protocol.String(), res.Cost, res.MeanDepth, excess)
		}
		fb, lqi := r.FB[i], r.LQI[i]
		if lqi.Cost > 0 {
			fmt.Fprintf(w, "%6.0fdBm  4B cost improvement: %.0f%%  (paper: 29%%..11%% over the sweep)\n",
				pw, 100*(lqi.Cost-fb.Cost)/lqi.Cost)
		}
	}
}

// FprintFig8 renders the per-node delivery boxplots.
func (r *PowerSweepResult) FprintFig8(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: per-node delivery ratio distributions on %s\n", r.Topo.Name)
	fmt.Fprintf(w, "%-12s %8s  %s\n", "protocol", "power", "boxplot")
	for i, pw := range r.Powers {
		b := metrics.NewBoxplot(r.LQI[i].PerNodeDelivery)
		fmt.Fprintf(w, "%-12s %6.0fdBm  %s\n", "MultiHopLQI", pw, b)
	}
	for i, pw := range r.Powers {
		b := metrics.NewBoxplot(r.FB[i].PerNodeDelivery)
		fmt.Fprintf(w, "%-12s %6.0fdBm  %s\n", "4B", pw, b)
	}
}

// ---------------------------------------------------------------------------
// Headline ("Table H"): 4B vs MultiHopLQI on Mirage and TutorNet — the
// abstract's 29%/44% cost reductions and 99.9%/99% vs ~93%/85% deliveries.
// ---------------------------------------------------------------------------

// HeadlineSpecs is the headline comparison: (4B, MultiHopLQI) on Mirage
// then TutorNet. RunHeadline regroups the results by this order.
func HeadlineSpecs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, kind := range []string{"mirage", "tutornet"} {
		for _, p := range []string{"4B", "MultiHopLQI"} {
			specs = append(specs, figureSpec(p, kind, seed, minutes))
		}
	}
	return specs
}

// HeadlineResult holds the two-testbed comparison.
type HeadlineResult struct {
	Testbeds []string
	FB       []*experiment.Result
	LQI      []*experiment.Result
}

// RunHeadline executes the headline comparison on a pool of workers.
func RunHeadline(seed uint64, minutes float64, workers int) *HeadlineResult {
	rcs := mustRuns(HeadlineSpecs(seed, minutes))
	runs := experiment.RunAllWorkers(rcs, workers)
	out := &HeadlineResult{}
	for i := 0; i < len(runs); i += 2 {
		out.Testbeds = append(out.Testbeds, rcs[i].Topo.Name)
		out.FB = append(out.FB, runs[i])
		out.LQI = append(out.LQI, runs[i+1])
	}
	return out
}

// Fprint renders the headline table.
func (r *HeadlineResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Headline: 4B vs MultiHopLQI (paper: Mirage -29% cost, 99.9% vs ~93-96%;")
	fmt.Fprintln(w, "          TutorNet -44% cost, 99% vs 85%)")
	fmt.Fprintf(w, "%-14s %-12s %8s %8s %10s\n", "testbed", "protocol", "cost", "depth", "delivery")
	for i, name := range r.Testbeds {
		for _, res := range []*experiment.Result{r.FB[i], r.LQI[i]} {
			fmt.Fprintf(w, "%-14s %-12s %8.2f %8.2f %9.2f%%\n",
				name, res.Protocol.String(), res.Cost, res.MeanDepth, res.DeliveryRatio*100)
		}
		if r.LQI[i].Cost > 0 {
			fmt.Fprintf(w, "%-14s cost reduction: %.0f%%\n",
				name, 100*(r.LQI[i].Cost-r.FB[i].Cost)/r.LQI[i].Cost)
		}
	}
}

// ---------------------------------------------------------------------------
// Estimator comparison: the paper's central claim run as a first-class
// workload. One router (CTP), one topology, one seed — only the link
// estimator varies: the four-bit hybrid against the beacon-only WMEWMA/ETX
// baseline, the windowed-mean PDR family, and pure-LQI estimation. The
// reproduction target is the qualitative ordering of delivery cost:
// four-bit below the beacon-only and LQI estimators.
// ---------------------------------------------------------------------------

// EstCompareKinds is the estimator axis of the comparison (and of the
// agility figure), in display order.
var EstCompareKinds = []core.EstimatorKind{
	core.KindFourBit, core.KindWMEWMA, core.KindPDR, core.KindLQI,
}

// estComparePowerDBm is the transmit power of the comparison testbed.
const estComparePowerDBm = -12.5

// comparisonSpec is one estimator kind on the comparison testbed: CTP on
// the default 8 x 8 grid (the generator's standard 6 m spacing, root in a
// corner) at reduced transmit power, so routes are several hops long and
// the grey region — where estimator quality decides cost — covers many
// links. The estimator comparison and the agility figure share it.
func comparisonSpec(k core.EstimatorKind, seed uint64, minutes float64) Spec {
	return Spec{
		Protocol:    "4B",
		Estimator:   string(k),
		Topology:    TopoSpec{Kind: "grid", Rows: 8, Cols: 8},
		Seed:        seed,
		TxPowerDBm:  estComparePowerDBm,
		DurationMin: minutes,
	}
}

// EstCompareSpecs is the estimator comparison: one comparison-testbed run
// per kind of EstCompareKinds.
func EstCompareSpecs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, k := range EstCompareKinds {
		specs = append(specs, comparisonSpec(k, seed, minutes))
	}
	return specs
}

// EstCompareResult holds the per-estimator runs, ordered as
// EstCompareKinds.
type EstCompareResult struct {
	Topo *topo.Topology
	Runs []*experiment.Result
}

// RunEstCompare executes the estimator comparison on a pool of workers.
func RunEstCompare(seed uint64, minutes float64, workers int) *EstCompareResult {
	rcs := mustRuns(EstCompareSpecs(seed, minutes))
	return &EstCompareResult{Topo: rcs[0].Topo, Runs: experiment.RunAllWorkers(rcs, workers)}
}

// ByKind returns the run for an estimator kind, or nil.
func (r *EstCompareResult) ByKind(k core.EstimatorKind) *experiment.Result {
	return byKind(r.Runs, k)
}

// byKind returns the run among runs that used estimator kind k, or nil.
func byKind(runs []*experiment.Result, k core.EstimatorKind) *experiment.Result {
	for _, res := range runs {
		if res.Estimator == k {
			return res
		}
	}
	return nil
}

// Fprint renders the comparison table plus the headline orderings,
// including the estimator-internal counters that explain them (a pure-LQI
// estimator completes no unicast windows; a beacon-only one completes no
// fewer beacon windows than four-bit but reacts at beacon cadence).
func (r *EstCompareResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Estimator comparison: CTP on %s at %.1f dBm (router fixed, estimator swapped)\n",
		r.Topo.Name, estComparePowerDBm)
	fmt.Fprintf(w, "%-8s %8s %8s %10s %12s %12s %12s\n",
		"est", "cost", "depth", "delivery", "beacon-wins", "unicast-wins", "replaced")
	for _, res := range r.Runs {
		fmt.Fprintf(w, "%-8s %8.2f %8.2f %9.1f%% %12d %12d %12d\n",
			string(res.Estimator), res.Cost, res.MeanDepth, res.DeliveryRatio*100,
			res.EstBeaconWin, res.EstUnicastWin, res.EstReplaced)
	}
	fb := r.ByKind(core.KindFourBit)
	if fb == nil {
		return
	}
	for _, k := range []core.EstimatorKind{core.KindWMEWMA, core.KindPDR, core.KindLQI} {
		if other := r.ByKind(k); other != nil && other.Cost > 0 {
			fmt.Fprintf(w, "4bit cost vs %s: %+.0f%%\n", string(k), 100*(fb.Cost-other.Cost)/other.Cost)
		}
	}
}
