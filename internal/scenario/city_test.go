package scenario

import (
	"testing"

	"fourbit/internal/experiment"
	"fourbit/internal/phy"
)

// cityRunConfig compiles a city preset and asserts the compiled run would
// select the sparse audible-set channel representation — the presets exist
// to exercise that path, so silently falling back to the dense O(n²)
// arrays (a threshold regression, or a lost Channel override) would turn
// them into memory bombs.
func cityRunConfig(t *testing.T, name string) experiment.RunConfig {
	t.Helper()
	p, ok := Preset(name)
	if !ok {
		t.Fatalf("preset %q missing", name)
	}
	rc, err := p.Spec.RunConfig()
	if err != nil {
		t.Fatalf("preset %q does not compile: %v", name, err)
	}
	if rc.Env == nil {
		t.Fatalf("preset %q lost its channel overrides", name)
	}
	if !phy.PrecomputeGeo(rc.Topo, rc.Env.Phy).Sparse() {
		t.Fatalf("preset %q (n=%d) selects the dense representation", name, rc.Topo.N())
	}
	return rc
}

// TestCityPresetsSelectSparse pins the representation choice for every
// city-scale preset, including the 10k-node one (topology build and
// geometric precompute only — no channel instantiation, so it stays cheap
// enough for -short).
func TestCityPresetsSelectSparse(t *testing.T) {
	for _, name := range []string{"city-corridor-2k", "city-multifloor-10k", "city-multifloor-10k-4sink"} {
		cityRunConfig(t, name)
	}
}

// TestMultiSinkPresetCompiles pins the 4-sink preset's sink derivation:
// three extra roots, all distinct, none the primary root — the anchor
// placement is deterministic, so a change here means the sink layout (and
// every result from the preset) moved.
func TestMultiSinkPresetCompiles(t *testing.T) {
	rc := cityRunConfig(t, "city-multifloor-10k-4sink")
	if len(rc.ExtraSinks) != 3 {
		t.Fatalf("ExtraSinks = %v, want 3 extra roots", rc.ExtraSinks)
	}
	seen := map[int]bool{rc.Topo.Root: true}
	for _, s := range rc.ExtraSinks {
		if s < 0 || s >= rc.Topo.N() {
			t.Errorf("extra sink %d out of range", s)
		}
		if seen[s] {
			t.Errorf("extra sink %d duplicates the root or another sink", s)
		}
		seen[s] = true
	}
}

// TestMultiSinkSmoke runs a short multi-sink collection end to end on the
// 2000-node corridor: traffic must be generated and delivered, and the
// per-node accounting must cover every non-sink origin — the shared
// multi-sink ledger behind one number.
func TestMultiSinkSmoke(t *testing.T) {
	p, _ := Preset("city-corridor-2k")
	p.Spec.DurationMin = 0.2
	p.Spec.WarmupMin = 0.1
	p.Spec.SampleS = 3
	p.Spec.Sinks = 3
	rc, err := p.Spec.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.ExtraSinks) != 2 {
		t.Fatalf("ExtraSinks = %v, want 2", rc.ExtraSinks)
	}
	res := experiment.Run(rc)
	if res.Generated == 0 || res.Unique == 0 {
		t.Fatalf("multi-sink smoke degenerate: generated=%d unique=%d", res.Generated, res.Unique)
	}
	if want := rc.Topo.N() - 3; len(res.PerNodeDelivery) != want {
		t.Errorf("PerNodeDelivery has %d entries, want %d (all nodes minus 3 sinks)", len(res.PerNodeDelivery), want)
	}
	t.Logf("multi-sink smoke: sinks=%v generated=%d unique=%d delivery=%.2f",
		append([]int{rc.Topo.Root}, rc.ExtraSinks...), res.Generated, res.Unique, res.DeliveryRatio)
}

// TestCityScaleSmoke actually runs the 2000-node corridor preset for a few
// simulated seconds: the full protocol stack over the sparse channel must
// boot, form the first tree layers around the root, and deliver traffic.
// CI runs this under the race detector (the `city-scale-smoke` step); the
// simulated duration is cut far below the preset's so that stays fast.
func TestCityScaleSmoke(t *testing.T) {
	p, _ := Preset("city-corridor-2k")
	p.Spec.DurationMin = 0.2 // 12 s simulated: boot window + first samples
	p.Spec.WarmupMin = 0.1
	p.Spec.SampleS = 3
	rc, err := p.Spec.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	cityRunConfig(t, "city-corridor-2k") // representation pin on the real preset
	res := experiment.Run(rc)
	if res.Generated == 0 {
		t.Fatal("city smoke generated no traffic")
	}
	if res.Unique == 0 {
		t.Fatal("city smoke delivered nothing; network degenerate")
	}
	t.Logf("2k smoke: generated=%d unique=%d delivery=%.2f events=%d",
		res.Generated, res.Unique, res.DeliveryRatio, res.Events)
}
