package experiment

import (
	"reflect"
	"sync"
	"testing"

	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// The runner's contract: a batch's results depend only on the RunConfigs,
// never on scheduling. These tests pin that down by comparing full Result
// structs (including every per-node slice) across worker counts, and by
// racing concurrent Runs for the race detector.

func testBatch(seed uint64) []RunConfig {
	tp := topo.Mirage(seed)
	var rcs []RunConfig
	for _, p := range []Protocol{ProtoCTP, Proto4B, ProtoMultiHopLQI} {
		rc := DefaultRunConfig(p, tp, seed)
		rc.Duration = 2 * sim.Minute
		rc.Warmup = 30 * sim.Second
		rcs = append(rcs, rc)
	}
	return rcs
}

func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	serial := RunAllWorkers(testBatch(7), 1)
	pooled := RunAllWorkers(testBatch(7), 4)
	if len(serial) != len(pooled) {
		t.Fatalf("result count: %d vs %d", len(serial), len(pooled))
	}
	for i := range serial {
		if serial[i].Protocol != pooled[i].Protocol {
			t.Fatalf("run %d: submission order not preserved: %v vs %v",
				i, serial[i].Protocol, pooled[i].Protocol)
		}
		if !reflect.DeepEqual(serial[i], pooled[i]) {
			t.Errorf("run %d (%v): serial and pooled results differ:\nserial: %+v\npooled: %+v",
				i, serial[i].Protocol, serial[i], pooled[i])
		}
	}
}

func TestRunAllWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	two := RunAllWorkers(testBatch(11), 2)
	many := RunAllWorkers(testBatch(11), 16) // more workers than runs
	for i := range two {
		if !reflect.DeepEqual(two[i], many[i]) {
			t.Errorf("run %d: results differ between 2 and 16 workers", i)
		}
	}
}

// TestConcurrentRunsAreIndependent drives two simultaneous Runs of the same
// config from separate goroutines; under -race this shreds any hidden
// shared state between environments (seed streams, channel tables, pools).
func TestConcurrentRunsAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	tp := topo.Mirage(5)
	rc := DefaultRunConfig(Proto4B, tp, 5)
	rc.Duration = 90 * sim.Second
	rc.Warmup = 30 * sim.Second

	results := make([]*Result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Run(rc)
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("same config diverged across concurrent runs:\n%+v\n%+v", results[0], results[1])
	}
}

func TestReplicaSeedsDeterministic(t *testing.T) {
	a := ReplicaSeeds(42, 4)
	b := ReplicaSeeds(42, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeds not reproducible: %v vs %v", a, b)
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate replica seed %d in %v", s, a)
		}
		seen[s] = true
	}
	// Prefix stability: asking for more replicas never changes earlier ones.
	c := ReplicaSeeds(42, 6)
	if !reflect.DeepEqual(a, c[:4]) {
		t.Errorf("replica seeds not prefix-stable: %v vs %v", a, c[:4])
	}
}

func TestReplicateAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	rc := DefaultRunConfig(Proto4B, topo.Mirage(9), 9)
	rc.Duration = 2 * sim.Minute
	rc.Warmup = 30 * sim.Second
	rep := ReplicateWorkers(rc, 3, DefaultWorkers())
	if len(rep.Runs) != 3 || len(rep.Seeds) != 3 {
		t.Fatalf("want 3 runs/seeds, got %d/%d", len(rep.Runs), len(rep.Seeds))
	}
	var sum float64
	for _, r := range rep.Runs {
		sum += r.Cost
	}
	if mean := sum / 3; !almost(rep.Cost.Mean, mean) {
		t.Errorf("cost mean = %v, want %v", rep.Cost.Mean, mean)
	}
	if rep.Delivery.Mean <= 0 || rep.Delivery.Mean > 1 {
		t.Errorf("delivery mean out of range: %v", rep.Delivery.Mean)
	}
}

func TestStatMoments(t *testing.T) {
	s := newStat([]float64{1, 2, 3, 4})
	if !almost(s.Mean, 2.5) {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample variance of 1..4 is 5/3.
	if !almost(s.Stddev*s.Stddev, 5.0/3) {
		t.Errorf("stddev = %v", s.Stddev)
	}
	if one := newStat([]float64{7}); one.Mean != 7 || one.Stddev != 0 {
		t.Errorf("single-sample stat = %+v", one)
	}
	if zero := newStat(nil); zero.Mean != 0 || zero.Stddev != 0 {
		t.Errorf("empty stat = %+v", zero)
	}
}

func TestParseProtocol(t *testing.T) {
	for _, p := range []Protocol{Proto4B, ProtoCTP, ProtoCTPUnidir, ProtoCTPWhite, ProtoCTPUnlimited, ProtoMultiHopLQI} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("nonsense"); err == nil {
		t.Error("ParseProtocol accepted garbage")
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
