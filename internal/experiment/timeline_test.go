package experiment

import (
	"fmt"
	"strings"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

func timelineTestConfig(seed uint64) RunConfig {
	rc := DefaultRunConfig(Proto4B, topo.Grid(4, 4, 6), seed)
	rc.Duration = 3 * sim.Minute
	rc.Warmup = 30 * sim.Second
	rc.SampleEvery = 30 * sim.Second
	return rc
}

// cityObserverConfig is a short 4B run on a 1200-node urban corridor
// under the city presets' conditions (path-loss exponent 4.0, compressed
// boot window), over one channel precompute shared by every call.
func cityObserverConfig() func() RunConfig {
	tp := topo.Corridor(1200, 900, 40, 1)
	env := EnvConfigFor(tp, 1, 0)
	env.Phy.PathLossExponent = 4.0
	env.ChanPre = phy.PrecomputeGeo(tp, env.Phy)
	return func() RunConfig {
		rc := DefaultRunConfig(Proto4B, tp, 1)
		rc.Duration = 8 * sim.Second
		rc.Warmup = 4 * sim.Second
		rc.SampleEvery = 2 * sim.Second
		rc.Workload.BootWindow = 3 * sim.Second
		rc.Env = &env
		return rc
	}
}

// passThrough decorates an estimator without changing anything: every
// call goes straight to the wrapped estimator.
type passThrough struct{ core.LinkEstimator }

// firstDiff returns the first line where two fingerprints differ (their
// line counts are fixed by the format), cut to a readable length.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range w {
		if w[i] != g[i] {
			return fmt.Sprintf("plain:    %.300s\nobserved: %.300s", w[i], g[i])
		}
	}
	return ""
}

// A run with a timeline attached, or with every estimator wrapped in a
// pass-through decorator, must replay the identical trajectory — both are
// pure observers — and the timeline's window totals must reconcile
// exactly with the end-of-run aggregates computed from the per-node
// counters. The city input holds the contract above 1024 nodes: a run's
// size must never decide whether observing it changes its answer.
func TestTimelineMatchesAggregates(t *testing.T) {
	inputs := []struct {
		name   string
		config func() RunConfig
		window sim.Time
		large  bool
		// inFlight bounds the transmissions the timeline may miss: a
		// frame on air or awaiting its ack at the cut counts in the MAC
		// totals at once but reaches the timeline only when it finishes,
		// after the run. Each MAC holds at most one; the small run's cut
		// finds none.
		inFlight uint64
	}{
		{"grid-16", func() RunConfig { return timelineTestConfig(3) }, 20 * sim.Second, false, 0},
		{"corridor-1200", cityObserverConfig(), 2 * sim.Second, true, 1200},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if in.large && testing.Short() {
				t.Skip("1200-node runs; skipped in -short")
			}
			plain := Run(in.config())
			if plain.Unique == 0 {
				t.Fatal("plain run delivered nothing; the comparison would be vacuous")
			}
			rc := in.config()
			rc.TimelineWindow = in.window
			probed := Run(rc)
			if probed.Timeline == nil {
				t.Fatal("no timeline recorded")
			}
			if plain.Timeline != nil {
				t.Fatal("unrequested timeline recorded")
			}
			// Identical trajectory: the full fingerprint (every float to
			// the last bit) must match the unprobed run.
			want := Fingerprint(in.config(), plain)
			if got := Fingerprint(rc, probed); got != want {
				t.Errorf("timeline collection changed the run:\n%s", firstDiff(want, got))
			}
			wrapped := in.config()
			wrapped.WrapEstimator = func(_ packet.Addr, est core.LinkEstimator) core.LinkEstimator {
				return passThrough{est}
			}
			if got := Fingerprint(wrapped, Run(wrapped)); got != want {
				t.Errorf("estimator wrapping changed the run:\n%s", firstDiff(want, got))
			}

			tl := probed.Timeline
			if tl.Window != in.window {
				t.Errorf("window = %v", tl.Window)
			}
			var dataTx, beaconTx, delivered, generated uint64
			for i := range tl.Windows {
				w := &tl.Windows[i]
				dataTx += w.DataTx
				beaconTx += w.BeaconTx
				delivered += w.Delivered
				generated += w.Generated
			}
			if dataTx > probed.DataTx || dataTx+beaconTx+in.inFlight < probed.DataTx+probed.BeaconTx {
				t.Errorf("timeline DataTx = %d, result = %d (at most %d in flight)", dataTx, probed.DataTx, in.inFlight)
			}
			if beaconTx > probed.BeaconTx || dataTx+beaconTx+in.inFlight < probed.DataTx+probed.BeaconTx {
				t.Errorf("timeline BeaconTx = %d, result = %d (at most %d in flight)", beaconTx, probed.BeaconTx, in.inFlight)
			}
			if delivered != probed.Unique+probed.Duplicates {
				t.Errorf("timeline Delivered = %d, result = %d unique + %d dups", delivered, probed.Unique, probed.Duplicates)
			}
			if generated != probed.Generated {
				t.Errorf("timeline Generated = %d, result = %d", generated, probed.Generated)
			}
			// Windows tile the run exactly.
			last := tl.Windows[len(tl.Windows)-1]
			if tl.Windows[0].Start != 0 || last.End != rc.Duration {
				t.Errorf("timeline spans [%v, %v), want [0, %v)", tl.Windows[0].Start, last.End, rc.Duration)
			}
			for i := 1; i < len(tl.Windows); i++ {
				if tl.Windows[i].Start != tl.Windows[i-1].End {
					t.Fatalf("window %d does not abut its predecessor", i)
				}
			}
		})
	}
}

// Replication carries each run's timeline through to the replicated result.
func TestReplicateCarriesTimelines(t *testing.T) {
	rc := timelineTestConfig(5)
	rc.TimelineWindow = 30 * sim.Second
	rep := ReplicateWorkers(rc, 2, 2)
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	for i, run := range rep.Runs {
		if run.Timeline == nil {
			t.Errorf("run %d lost its timeline", i)
		}
	}
}
