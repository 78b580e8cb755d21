// Command fourbitbench is the repository's benchmark. It runs one named
// workload from a seed, checks the program's answers, and prints every
// metric with its unit; the last line of standard output is one JSON
// object. With --trace 1 it runs the workload untraced and then traced,
// prints the per-layer metrics and the layer cost table, and writes the
// span file under .bench_build/spans. Build and run it through run.sh
// from the repository root; README.md records why each workload exists.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are one invocation's settings and the workload sizes.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	commit   string

	fig6Minutes float64
	serve       *serveWorkload
}

func defaultOptions() options {
	return options{
		root:        ".",
		fig6Minutes: 5,
		serve:       defaultServe(),
	}
}

var workloads = []string{"fig6-mirage", "city-2k", "serve-replay"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured, before it is cut down to the
// metric set --trace selects.
type report struct {
	res      result
	values   map[string]float64
	lines    []string // human-readable measurements, printed above the result
	notes    []string // per-layer metrics not measured on this workload, and why
	layers   []layerCost
	checkErr error
	prov     map[string]any
	tracer   *tracer
}

func main() { os.Exit(run(os.Args[1:], defaultOptions(), os.Stdout, os.Stderr)) }

// run parses the command line over opts, runs the workload and prints the
// result; it returns the exit code.
func run(args []string, opts options, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("fourbitbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	fset.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	fset.Uint64Var(&opts.seed, "seed", 1, "seed the workload's inputs are made from")
	fset.Float64Var(&opts.seconds, "seconds", 20, "how long a run measures: the serve window, or the sims' batch count at their nominal batch time")
	trace := fset.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	fset.StringVar(&opts.root, "root", ".", "repository checkout the benchmark runs in")
	fset.StringVar(&opts.commit, "commit", "unknown", "commit of the checkout, for the provenance record")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "fourbitbench: --trace must be 0 or 1")
		return 2
	}
	opts.trace = *trace == 1
	if opts.seconds <= 0 {
		fmt.Fprintln(stderr, "fourbitbench: --seconds must be positive")
		return 2
	}
	bm, err := loadBenchmarkJSON(opts.root)
	if err != nil {
		fmt.Fprintf(stderr, "fourbitbench: %v\n", err)
		return 1
	}
	rep, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(stderr, "fourbitbench: %s: %v\n", opts.workload, err)
		return 1
	}
	if err := rep.finish(opts, bm); err != nil {
		fmt.Fprintf(stderr, "fourbitbench: %s: %v\n", opts.workload, err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	rep.print(w, opts)
	if !rep.res.Correct {
		fmt.Fprintf(stderr, "fourbitbench: %s: answer check failed: %v\n", opts.workload, rep.checkErr)
		return 1
	}
	return 0
}

// runWorkload dispatches to the named workload.
func runWorkload(opts options) (*report, error) {
	switch opts.workload {
	case "fig6-mirage":
		return runSim(fig6Mirage(opts.fig6Minutes, runtime.GOMAXPROCS(0)), opts)
	case "city-2k":
		return runSim(city2k(), opts)
	case "serve-replay":
		return runServe(opts.serve, opts)
	}
	return nil, fmt.Errorf("unknown workload %q (workloads: %s)", opts.workload, strings.Join(workloads, ", "))
}

// runSim measures a simulation workload: repeated set-up, the untraced
// pass over the window and, with tracing, a traced pass over the same
// batches whose run fingerprints must equal the untraced ones.
func runSim(w *simWorkload, opts options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	var setupS, topoS, preS []float64
	var st *simSetup
	for r := 0; r < w.setupReps; r++ {
		debug.FreeOSMemory() // every set-up starts from the same heap
		var err error
		if st, err = w.setup(opts.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, st.topoS+st.precomputS)
		topoS, preS = append(topoS, st.topoS), append(preS, st.precomputS)
	}
	p := w.runUntraced(st, opts.seed, w.batches(opts.seconds))
	rep.checkErr = w.check(p)
	v := rep.values
	v["setup_s"] = median(setupS)
	v["simsec_per_s"] = median(p.rates)
	v["success_ratio"] = float64(p.runs-p.failed) / float64(p.runs)
	v["op_p50_ms"] = median(p.batchMS)
	v["topo.build_s"], v["phy.precompute_s"] = median(topoS), median(preS)
	rep.res.Attempted, rep.res.Failed = int64(p.runs), int64(p.failed)
	params := map[string]any{}
	for k, x := range w.params {
		params[k] = x
	}
	params["shards"], params["batches"] = p.shards, p.batches
	rep.prov = provenance(opts, params)
	rep.lines = append(rep.lines,
		fmt.Sprintf("untraced: %d batches, %d runs, %.1f simulated s in %.3f s wall; batch %s; shards %d",
			p.batches, p.runs, p.simSec, p.wall.Seconds(), summarize(p.batchMS), p.shards),
		fmt.Sprintf("  simulated s per s, per batch: %.4g", p.rates))
	if !opts.trace {
		return rep, nil
	}

	tr := newTracer()
	rep.tracer = tr
	wid := tr.id()
	wStart := time.Now()
	tst, err := w.setup(opts.seed)
	if err != nil {
		return nil, err
	}
	setupEnd := wStart.Add(time.Duration((tst.topoS + tst.precomputS) * float64(time.Second)))
	topoEnd := wStart.Add(time.Duration(tst.topoS * float64(time.Second)))
	tr.add(span{Parent: wid, Name: "topo.build", Layer: "topo", Start: tr.since(wStart), End: tr.since(topoEnd)})
	tr.add(span{Parent: wid, Name: "phy.PrecomputeGeo", Layer: "phy.precompute", Start: tr.since(topoEnd), End: tr.since(setupEnd)})
	tp, err := w.runTraced(tst, opts.seed, p.batches, tr, wid)
	if err != nil {
		return nil, err
	}
	tr.add(span{ID: wid, Name: "workload " + w.name, Layer: "bench", Start: tr.since(wStart), End: tr.since(time.Now()),
		Counts: map[string]float64{"batches": float64(tp.batches), "runs": float64(tp.runs)}})
	if err := w.check(tp); err != nil && rep.checkErr == nil {
		rep.checkErr = fmt.Errorf("traced pass: %w", err)
	}
	rep.res.Attempted += int64(tp.runs)
	rep.res.Failed += int64(tp.failed)
	for i := range p.prints {
		if p.prints[i] != tp.prints[i] {
			rep.checkErr = fmt.Errorf("traced run %d changed the result:\nuntraced %s\ntraced   %s", i, p.prints[i], tp.prints[i])
			break
		}
	}
	ls := tp.layer
	// Run busy time, less what the estimator timer itself added.
	busy := -float64(ls.coreCalls) * ls.timerNS.Seconds()
	for _, b := range ls.runBusyS {
		busy += b
	}
	v["sim.events"] = float64(ls.events)
	v["sim.ns_per_event"] = busy * 1e9 / float64(ls.events)
	v["sim.shard_imbalance"] = median(ls.shardImb)
	v["phy.frames"] = float64(ls.med.Transmissions)
	v["phy.rx_success_ratio"] = ratio(ls.med.Delivered, ls.med.Delivered+ls.med.DroppedBER+ls.med.DroppedCollision)
	c := ls.counts
	v["mac.data_tx"], v["mac.ack_ratio"], v["mac.cca_giveups"] = float64(c.DataTx), ratio(c.DataAcked, c.DataTx), float64(c.CCAGiveUps)
	v["ctp.beacons"], v["ctp.parent_changes"] = float64(c.BeaconsSent), float64(c.ParentChanges)
	v["collect.generated"], v["collect.delivered"] = float64(c.Generated), float64(c.Delivered)
	v["experiment.run_busy_s"] = busy / float64(len(ls.runBusyS))
	v["experiment.pool_imbalance"] = median(ls.poolImbalance)
	v["bench.trace_overhead"] = tp.wall.Seconds()/p.wall.Seconds() - 1
	if w.serialOnly {
		v["phy.replay_s"], v["phy.ns_per_frame"] = ls.replayS, ls.replayS*1e9/float64(ls.replayFrames)
		v["core.calls"], v["core.busy_s"] = float64(ls.coreCalls), ls.coreBusy.Seconds()
		v["stack.self_s"] = busy - ls.replayS - ls.coreBusy.Seconds()
		rep.lines = append(rep.lines, fmt.Sprintf("core timer: %d calls, its own %v per call subtracted from core.busy_s", ls.coreCalls, ls.timerNS))
	} else {
		v["stack.self_s"] = busy
		rep.notes = append(rep.notes, "core.calls, core.busy_s, phy.replay_s and phy.ns_per_frame: not measured on "+w.name+
			" (ROADMAP item 2): a WrapEstimator timer flips a run of 1024+ nodes to the serial loop (resolveShards), and"+
			" Medium.OnTransmit panics under sharded dispatch; stack.self_s therefore includes phy and core")
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("traced: %d batches in %.3f s wall (tracing overhead %+.1f%% over the untraced pass); fingerprints checked on %d runs",
			tp.batches, tp.wall.Seconds(), 100*v["bench.trace_overhead"], len(tp.prints)))
	rep.layers = tr.layerCosts()
	return rep, nil
}

// runServe measures serve-replay: an untraced session and, with tracing,
// a traced one on a fresh server.
func runServe(w *serveWorkload, opts options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	f, err := recordFeeds(opts.seed, w.feedMinutes)
	if err != nil {
		return nil, err
	}
	// The recording's peak is the generator's: peak_rss_mb covers set-up
	// and serving only.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	s, err := w.run(f, opts.seconds, nil, 0)
	if err != nil {
		return nil, err
	}
	v := rep.values
	rate := s.rate()
	v["setup_s"] = median(s.setupS)
	v["simsec_per_s"] = f.networkSeconds(rate)
	v["success_ratio"] = float64(s.attempted-s.failed) / float64(s.attempted)
	v["op_p50_ms"] = s.ingest.P50
	v["ingest_events_per_s"] = rate
	v["ingest_p50_ms"], v["ingest_p99_ms"] = s.ingest.P50, s.ingest.Tail
	v["query_p50_ms"], v["query_p99_ms"] = s.query.P50, s.query.Tail
	rep.res.Attempted, rep.res.Failed = s.attempted, s.failed
	rep.checkErr = s.checkErr
	params := w.params(f)
	params["instances"], params["events_per_pass"], params["feed_span_s"] = len(f.nodes), f.total, f.span.Seconds()
	rep.prov = provenance(opts, params)
	rep.lines = append(rep.lines,
		fmt.Sprintf("untraced: %d events in %.3f s (median of 1 s slices %.0f events/s, %.2f network-s per s); %d requests, %d failed",
			s.events, s.window.Seconds(), rate, v["simsec_per_s"], s.attempted, s.failed),
		fmt.Sprintf("  events/s per 1 s slice: %.0f", s.sliceRates()),
		"  ingest latency: "+s.ingest.String(),
		"  query latency (from when due): "+s.query.String(),
		"  generator lag: "+s.genLag.String())
	if !opts.trace {
		return rep, nil
	}

	tr := newTracer()
	rep.tracer = tr
	wid := tr.id()
	wStart := time.Now()
	t, err := w.run(f, opts.seconds, tr, wid)
	if err != nil {
		return nil, err
	}
	tr.add(span{ID: wid, Name: "workload serve-replay", Layer: "bench", Start: tr.since(wStart), End: tr.since(time.Now())})
	rep.res.Attempted += t.attempted
	rep.res.Failed += t.failed
	if rep.checkErr == nil {
		rep.checkErr = t.checkErr
	}
	handler := map[string][]float64{}
	overhead := []float64{}
	tr.mu.Lock()
	byID := map[uint64]span{}
	for _, sp := range tr.spans {
		if sp.Layer == "http" {
			byID[sp.ID] = sp
		}
	}
	// Only the window's requests: not set-up, warm-up or the checks.
	for _, sp := range tr.spans {
		if sp.Layer != "serve.ingest" && sp.Layer != "serve.query" || sp.Start < t.winLo || sp.Start >= t.winHi {
			continue
		}
		d := float64(sp.End-sp.Start) / 1e6
		handler[sp.Layer] = append(handler[sp.Layer], d)
		if c, ok := byID[sp.Parent]; ok {
			overhead = append(overhead, float64(c.End-c.Start)/1e6-d)
		}
	}
	tr.mu.Unlock()
	ih, qh := summarize(handler["serve.ingest"]), summarize(handler["serve.query"])
	v["serve.ingest_handler_p50_ms"], v["serve.ingest_handler_p99_ms"] = ih.P50, ih.Tail
	v["serve.query_handler_p50_ms"], v["serve.query_handler_p99_ms"] = qh.P50, qh.Tail
	depth := append([]float64(nil), t.queueDepth...)
	sort.Float64s(depth)
	v["serve.queue_depth_p99"] = quantile(depth, 0.99)
	v["serve.backpressured"] = float64(t.backpressured)
	v["serve.applied_ratio"] = ratio(t.applied, t.applied+t.backpressured+t.dropped)
	enc, dec, err := wireCost(f)
	if err != nil {
		return nil, err
	}
	v["wire.encode_ns_per_event"], v["wire.decode_ns_per_event"] = enc, dec
	v["client.flushes"], v["client.retries"] = float64(t.flushes), float64(t.retries)
	v["http.overhead_p50_ms"] = summarize(overhead).P50
	v["bench.gen_lag_p99_ms"] = t.genLag.Tail
	v["bench.trace_overhead"] = rate/t.rate() - 1
	rep.lines = append(rep.lines,
		fmt.Sprintf("traced: %d events in %.3f s (tracing overhead %+.1f%% in ingest time per event)",
			t.events, t.window.Seconds(), 100*v["bench.trace_overhead"]),
		"  ingest handler: "+ih.String(), "  query handler: "+qh.String(),
		fmt.Sprintf("  wire: encode %.1f ns/event, decode %.1f ns/event", enc, dec))
	rep.layers = tr.layerCosts()
	return rep, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark reads: the
// names and units of the metrics it must print.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bm, nil
}

// finish fills the result with the metrics --trace selects, each with the
// unit BENCHMARK.json gives it. An end-to-end metric the run did not
// measure is an error; a per-layer metric this workload has no such layer
// for reads 0 and is listed in a note.
func (rep *report) finish(opts options, bm *benchmarkJSON) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.values["peak_rss_mb"] = rss
	rep.res.Correct = rep.checkErr == nil
	rep.res.Metrics = map[string]metric{}
	if !opts.trace {
		for _, m := range bm.EndToEnd {
			x, ok := rep.values[m.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			rep.res.Metrics[m.Name] = metric{x, m.Unit}
		}
		return nil
	}
	var missing []string
	for _, m := range bm.PerLayer {
		x, ok := rep.values[m.Name]
		if !ok && !strings.Contains(strings.Join(rep.notes, " "), m.Name) {
			missing = append(missing, m.Name)
		}
		rep.res.Metrics[m.Name] = metric{x, m.Unit}
	}
	if len(missing) > 0 {
		rep.notes = append(rep.notes, "no such layer on "+opts.workload+", reported as 0: "+strings.Join(missing, ", "))
	}
	path := spanPath(opts.root, opts.workload, opts.seed)
	if err := rep.tracer.writeFile(path, rep.prov); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	rep.lines = append(rep.lines, "spans written to "+path)
	return nil
}

// print writes the provenance, the measurements, the layer table when
// traced, and the result as the last line.
func (rep *report) print(w io.Writer, opts options) {
	prov, _ := json.Marshal(rep.prov)
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	if opts.trace {
		printLayerTable(w, opts.workload, opts.seed, rep.layers, rep.notes)
	}
	if rep.checkErr != nil {
		fmt.Fprintf(w, "answer check failed: %v\n", rep.checkErr)
	}
	line, _ := json.Marshal(rep.res)
	fmt.Fprintf(w, "%s\n", line)
}

// provenance records the machine, toolchain, source and inputs a result
// was measured with.
func provenance(opts options, params map[string]any) map[string]any {
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        opts.commit,
		"source_sha256": sourceHash(opts.root),
		"workload":      opts.workload,
		"seed":          opts.seed,
		"seconds":       opts.seconds,
		"trace":         opts.trace,
		"params":        params,
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the program under test (go.mod and every .go
// file outside the benchmark), standing in for the commit in a checkout
// that is not a git repository.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "fourbitbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && rel != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
