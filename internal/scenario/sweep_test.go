package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// tinySweep is a 2×2 grid of very short line-topology runs, small enough
// to execute in tests.
func tinySweep() Sweep {
	return Sweep{
		Name: "tiny",
		Base: Spec{
			Topology:    TopoSpec{Kind: "line", N: 5, SpacingM: 12},
			Seed:        3,
			DurationMin: 1,
			WarmupMin:   0.5,
			Replicates:  2,
		},
		Axes: []Axis{
			{Param: "protocol", Strings: []string{"4B", "MultiHopLQI"}},
			{Param: "txpower", Values: []float64{0, -5}},
		},
	}
}

func TestSweepValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		sw   Sweep
		frag string
	}{
		{"unknown param", Sweep{Axes: []Axis{{Param: "humidity", Values: []float64{1}}}}, "unknown sweep parameter"},
		{"empty axis", Sweep{Axes: []Axis{{Param: "txpower"}}}, "no values"},
		{"both kinds", Sweep{Axes: []Axis{{Param: "txpower", Values: []float64{1}, Strings: []string{"a"}}}}, "both Values and Strings"},
		{"stringly needs strings", Sweep{Axes: []Axis{{Param: "protocol", Values: []float64{1}}}}, "needs Strings"},
		{"numeric needs values", Sweep{Axes: []Axis{{Param: "txpower", Strings: []string{"x"}}}}, "needs numeric"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantErr(t, c.sw.Validate(), c.frag)
		})
	}
	// A bad protocol name is caught at cell expansion.
	sw := tinySweep()
	sw.Axes[0].Strings = []string{"4B", "9B"}
	_, err := sw.Cells()
	wantErr(t, err, "unknown protocol")
}

func TestSweepExpansionRowMajor(t *testing.T) {
	sw := tinySweep()
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	want := [][2]string{{"4B", "0"}, {"4B", "-5"}, {"MultiHopLQI", "0"}, {"MultiHopLQI", "-5"}}
	for i, c := range cells {
		if c.Labels[0].Value != want[i][0] || c.Labels[1].Value != want[i][1] {
			t.Errorf("cell %d = %v, want %v", i, c.Labels, want[i])
		}
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
	}
	// The base spec must not leak mutations between cells.
	if cells[0].Spec.Protocol != "4B" || cells[3].Spec.Protocol != "MultiHopLQI" {
		t.Error("cell specs share state")
	}
	if sw.Base.Protocol != "" {
		t.Error("expansion mutated the base spec")
	}
}

func TestDefaultSweepIsTwelveCells(t *testing.T) {
	sw := DefaultSweep(1, 25, 3)
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("default sweep has %d cells, want 12", len(cells))
	}
	kinds := map[string]bool{}
	for _, c := range cells {
		kinds[c.Spec.Topology.Kind] = true
		if c.Spec.Replicates != 3 {
			t.Fatalf("cell lost replicate count: %+v", c.Spec)
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("default sweep spans %d topologies, want 3", len(kinds))
	}
}

func TestSweepRunWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	sw := tinySweep()
	serial, err := sw.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := sw.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatal("sweep results differ between 1 and 4 workers")
	}
	// And the exports are byte-identical too.
	var a, b bytes.Buffer
	if err := serial.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := pooled.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CSV differs between worker counts")
	}
}

func TestSweepExports(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	sw := tinySweep()
	res, err := sw.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 cells:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "cell,protocol,txpower,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	for _, want := range []string{"cost_mean", "delivery_mean", "beacontx_mean"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("CSV header missing %q", want)
		}
	}

	var jsonBuf bytes.Buffer
	if err := res.WriteJSONL(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	jl := strings.Split(strings.TrimSpace(jsonBuf.String()), "\n")
	if len(jl) != 4 {
		t.Fatalf("JSONL has %d lines, want 4", len(jl))
	}
	for _, line := range jl {
		for _, want := range []string{`"params"`, `"seeds"`, `"runs"`, `"cost"`} {
			if !strings.Contains(line, want) {
				t.Errorf("JSONL row missing %s: %s", want, line)
			}
		}
	}

	var table bytes.Buffer
	res.Fprint(&table)
	if !strings.Contains(table.String(), "4 cells") {
		t.Errorf("table rendering: %s", table.String())
	}
}

func TestParseSweepRejectsUnknownFields(t *testing.T) {
	_, err := ParseSweep([]byte(`{"Base": {}, "Axez": []}`))
	wantErr(t, err, "Axez")
	_, err = ParseSweep([]byte(`{"Base": {"Protocol": "4B", "Shards": 2}}`))
	wantErr(t, err, "Shards")
}

func TestPresetsAllValid(t *testing.T) {
	for _, p := range Presets() {
		if _, err := p.Spec.RunConfig(); err != nil {
			t.Errorf("preset %q does not compile: %v", p.Name, err)
		}
	}
	if _, ok := Preset("baseline"); !ok {
		t.Error("baseline preset missing")
	}
	if _, ok := Preset("no-such"); ok {
		t.Error("lookup of unknown preset succeeded")
	}
}
