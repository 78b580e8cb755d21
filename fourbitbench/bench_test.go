package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fourbit/internal/experiment"
)

// tinyOptions shrinks every workload so a run takes seconds.
func tinyOptions() options {
	o := defaultOptions()
	o.fig6Minutes = 2
	o.serve.feedMinutes = 0.5
	o.serve.warmup = 200 * time.Millisecond
	o.serve.setupReps = 2
	return o
}

// runTiny runs one workload through the command line and returns its
// result line.
func runTiny(t *testing.T, workload string, trace int) result {
	t.Helper()
	root := t.TempDir()
	bm, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), bm, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", fmt.Sprint(trace), "--root", root}
	if code := run(args, tinyOptions(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	if trace == 1 {
		if !strings.Contains(stdout.String(), "layer cost table: "+workload) {
			t.Errorf("traced run printed no layer cost table:\n%s", stdout.String())
		}
		if _, err := os.Stat(spanPath(root, workload, 3)); err != nil {
			t.Errorf("traced run wrote no span file: %v", err)
		}
	}
	return res
}

// TestEveryMetricPrints runs each workload at a tiny size, untraced and
// traced, and requires every metric BENCHMARK.json names for that mode,
// with its unit, and a correct result.
func TestEveryMetricPrints(t *testing.T) {
	bm, err := loadBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bm.EndToEnd, bm.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				res := runTiny(t, w, trace)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if trace == 0 && got.Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", m.Name)
					}
				}
			})
		}
	}
}

// inputs describes what a workload generates from a seed, before
// anything is measured.
func inputs(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	o := tinyOptions()
	var b strings.Builder
	switch workload {
	case "fig6-mirage", "city-2k":
		w := fig6Mirage(o.fig6Minutes, 1)
		if workload == "city-2k" {
			w = city2k()
		}
		st, err := w.setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		for b0 := 0; b0 < 2; b0++ {
			for _, rc := range st.batch(seed, b0) {
				fmt.Fprintf(&b, "run %v seed %d topology %s %v\n", rc.Protocol, rc.Seed, rc.Topo.Name, rc.Topo.Positions[:3])
			}
		}
	case "serve-replay":
		f, err := recordFeeds(seed, o.serve.feedMinutes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.nodes {
			fmt.Fprintf(&b, "instance %d seed %d jsonl %v\n", f.nodes[i], f.instanceSeed(i), f.isJSONL[i])
		}
		fmt.Fprintf(&b, "control %d events %d\n", f.controlNode(), f.total)
	}
	return b.String()
}

// TestSeedChangesInputs requires a seed to reproduce its inputs and a
// different seed to change them.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, again, b := inputs(t, w, 1), inputs(t, w, 1), inputs(t, w, 2)
			if a != again {
				t.Errorf("seed 1 made different inputs twice:\n%s\n%s", a, again)
			}
			if a == b {
				t.Errorf("seeds 1 and 2 made the same inputs:\n%s", a)
			}
		})
	}
}

// TestTamperedControlTableFails checks the serve answer check both ways:
// the control instance's real table passes, and the same table with one
// ETX bit flipped fails.
func TestTamperedControlTableFails(t *testing.T) {
	w := tinyOptions().serve
	f, err := recordFeeds(5, w.feedMinutes)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{w: w, f: f, ingestT: newBenchTransport(nil, "ingest"), queryT: newBenchTransport(nil, "query")}
	s.ingestC, s.queryC = &http.Client{Transport: s.ingestT}, &http.Client{Transport: s.queryT}
	if s.ls, err = startServer(f, nil, s.ingestC); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.ls.stop(); err != nil {
			t.Error(err)
		}
	}()
	if err := s.checkControl(); err != nil {
		t.Fatalf("untampered control table: %v", err)
	}
	var tab tableResp
	if err := getJSON(s.queryC, s.ls.base+"/v1/instances/control/table", &tab); err != nil {
		t.Fatal(err)
	}
	local, err := localEstimator(f, f.controlNode())
	if err != nil {
		t.Fatal(err)
	}
	k := -1
	for i, r := range tab.Neighbors {
		if r.HasETX {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatalf("control table has no neighbor with an ETX: %+v", tab.Neighbors)
	}
	hex := []byte(tab.Neighbors[k].ETXHex)
	hex[len(hex)-1] ^= 1
	tab.Neighbors[k].ETXHex = string(hex)
	if err := compareTable(tab.Neighbors, local); err == nil {
		t.Fatalf("tampered row %d (%+v) passed the check", k, tab.Neighbors[k])
	}
}

// TestFigure6Check checks the replicated-figure check both ways: it passes
// when 4B has the lowest mean cost and delivers, and fails when another
// variant is cheaper or 4B delivers too little.
func TestFigure6Check(t *testing.T) {
	means := func(fourCost, fourDelivery float64) map[experiment.Protocol]*variantMean {
		m := map[experiment.Protocol]*variantMean{
			experiment.Proto4B: {costSum: fourCost, deliverySum: fourDelivery, n: 1},
		}
		for i, p := range []experiment.Protocol{experiment.ProtoCTP, experiment.ProtoCTPUnidir,
			experiment.ProtoCTPWhite, experiment.ProtoMultiHopLQI} {
			m[p] = &variantMean{costSum: 1.8 + 0.1*float64(i), deliverySum: 0.98, n: 1}
		}
		return m
	}
	if err := checkFigure6(means(1.6, 1)); err != nil {
		t.Errorf("4B cheapest and delivering: %v", err)
	}
	if err := checkFigure6(means(1.85, 1)); err == nil {
		t.Error("4B dearer than CTP+unidir passed")
	}
	if err := checkFigure6(means(1.6, 0.98)); err == nil {
		t.Error("4B delivering 98% passed")
	}
}
