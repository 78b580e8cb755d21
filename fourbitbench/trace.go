package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one HTTP request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts are the layer counters read at this boundary.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Carve attributes seconds of this span's self time to other layers,
	// measured without a span per call: the estimator timer inside a
	// simulation run and the phy replay of its transmission schedule.
	Carve map[string]float64 `json:"carve,omitempty"`
	// Measure marks the benchmark's own measuring work (the phy replay),
	// which is kept in the span file but left out of the layer table.
	Measure bool `json:"measure,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name their parent before the
// parent span ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// since converts a wall instant to the tracer's nanosecond timeline.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.t0))
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeFile writes the provenance header and every span as JSON lines.
func (t *tracer) writeFile(path string, prov map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCost is one row of the layer cost table.
type layerCost struct {
	Layer string
	SelfS float64
	Share float64
}

// layerCosts folds the spans into per-layer self time: a span's duration
// minus the part of its interval its children cover, less what its Carve
// attributes to other layers. Children may overlap (a worker pool), so
// coverage is the union of their intervals. Shares are of the summed self
// time, which exceeds wall time when layers run in parallel.
func (t *tracer) layerCosts() []layerCost {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.Measure {
			continue
		}
		own := float64(s.End-s.Start-covered(s.Start, s.End, kids[s.ID])) / 1e9
		for layer, sec := range s.Carve {
			self[layer] += sec
			own -= sec
		}
		self[s.Layer] += own
	}
	var total float64
	for _, v := range self {
		total += v
	}
	rows := make([]layerCost, 0, len(self))
	for layer, v := range self {
		share := 0.0
		if total > 0 {
			share = v / total
		}
		rows = append(rows, layerCost{layer, v, share})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return rows
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var sum int64
	cur := lo
	for _, iv := range s {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// printLayerTable prints the layer cost table between fixed marker lines,
// so a script can cut it out of the run's output.
func printLayerTable(w io.Writer, workload string, seed uint64, rows []layerCost, notes []string) {
	fmt.Fprintf(w, "layer cost table: %s seed=%d (self time from the traced run)\n", workload, seed)
	fmt.Fprintf(w, "  %-22s %12s %8s\n", "layer", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %12.4f %7.2f%%\n", r.Layer, r.SelfS, 100*r.Share)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w, "end layer cost table")
}

// spanPath names the span file of a traced run inside the checkout.
func spanPath(root, workload string, seed uint64) string {
	return filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", strings.ReplaceAll(workload, "/", "_"), seed))
}
