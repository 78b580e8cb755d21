package serve

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// footerSizes and feedMix describe a recorded feed: the 85 per-node feeds
// of `fourbitsim scenario -preset baseline -minutes 5 -estfeed-dir DIR`
// (4B on Mirage, seed 1 — the run the serve-replay benchmark replays),
// 299,484 events.
//
// footerSizes is the footer-length mix per mille: entry k is the share of
// beacons carrying k footer entries. Footers stop at 8 entries, the
// default core.Config.FooterEntries; half the beacons carry all 8.
var footerSizes = [...]int{14, 22, 31, 40, 54, 67, 109, 142, 521}

// feedMix is the event-kind mix per mille: 285,839 beacons, 6,056 age
// passes, 3,912 tx results and 3,677 overheard frames (rx takes the
// remaining 12). Every beacon and rx line carries a full-precision snr
// (median 12.7 dB, quartiles 7.0 and 19.3); 92.5% of beacons and rx are
// white, 87% of tx results acked, and age silences are 312.5 ms doublings.
const (
	mixBeacon = 955
	mixAge    = 20
	mixTx     = 13
)

// benchLines builds a wire stream shaped like the recorded feed: its kind
// mix, footer lengths, snr on every beacon and rx, all in the canonical
// line grammar the feed recorder writes (wire.AppendJSONLEvent).
func benchLines(n int) [][]byte {
	r := sim.NewRand(0xBE7C)
	var now sim.Time
	var seqs [32]uint16
	var links [packet.MaxLinkEntries]packet.LinkEntry
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		now += sim.Time(1 + r.Int63n(int64(sim.Second)))
		src := packet.Addr(1 + r.Intn(18))
		ev := Event{At: now, Src: src, LQI: uint8(100 + r.Intn(11)), White: r.Bernoulli(0.925),
			SNR: r.Normal(12.7, 9.1)}
		switch k := r.Intn(1000); {
		case k < mixBeacon:
			ev.Ev = EvBeacon
			seqs[src]++
			ev.Seq = seqs[src]
			ev.Links = links[:footerLen(r)]
			for j := range ev.Links {
				ev.Links[j] = packet.LinkEntry{Addr: packet.Addr(r.Intn(85)), InQuality: uint8(r.Intn(256))}
			}
		case k < mixBeacon+mixAge:
			ev = Event{Ev: EvAge, At: now, Silence: 312_500 * sim.Microsecond << r.Intn(5)}
		case k < mixBeacon+mixAge+mixTx:
			ev = Event{Ev: EvTx, At: now, Src: src, Acked: r.Bernoulli(0.87)}
		default:
			ev.Ev = EvRx
		}
		out = append(out, wire.AppendJSONLEvent(nil, &ev))
	}
	return out
}

// footerLen draws a footer length from footerSizes.
func footerLen(r *sim.Rand) int {
	x := r.Intn(1000)
	for k, w := range footerSizes {
		if x < w {
			return k
		}
		x -= w
	}
	return len(footerSizes) - 1
}

// benchFrame encodes the same stream benchLines yields as one binary frame,
// so the two ingest sub-benchmarks push identical event sequences.
func benchFrame(b *testing.B, lines [][]byte) []byte {
	b.Helper()
	var dec EventDecoder
	evs := make([]Event, len(lines))
	for i, line := range lines {
		if err := dec.Decode(line, &evs[i]); err != nil {
			b.Fatal(err)
		}
		evs[i].Links = append([]packet.LinkEntry(nil), evs[i].Links...)
	}
	frame, err := wire.AppendBatch(nil, evs)
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkServeDecodeEvent measures the per-line cost of the strict wire
// decoder — the hot edge of every JSONL ingest request. Budgeted in
// scripts/alloc_budget.txt: the fast path's scratch reuse must hold.
func BenchmarkServeDecodeEvent(b *testing.B) {
	lines := benchLines(1024)
	var dec EventDecoder
	var ev Event
	for _, line := range lines { // warm scratch: 1x runs measure steady state
		if err := dec.Decode(line, &ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(lines[i%len(lines)], &ev); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQueueDepth is the bench instances' ring size.
const benchQueueDepth = 1024

// benchInstances builds n warm estimator instances and registers cleanup.
func benchInstances(b *testing.B, n int) []*instance {
	b.Helper()
	ins := make([]*instance, n)
	for i := range ins {
		in, err := newInstance(fmt.Sprintf("bench-%d", i), core.KindFourBit, 0, core.DefaultConfig(),
			uint64(i), benchQueueDepth, Backpressure)
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
		b.Cleanup(func() { <-in.close() })
	}
	return ins
}

// admitAll pushes evs through enqueueBatch, waiting out the worker
// whenever the ring is full.
func admitAll(b *testing.B, in *instance, evs []Event) {
	for len(evs) > 0 {
		n, err := in.enqueueBatch(evs)
		evs = evs[n:]
		if err == nil {
			return
		}
		if err != ErrQueueFull {
			b.Error(err)
			return
		}
		in.barrier(nil) // wait out the worker, then retry
	}
}

// BenchmarkServeIngest measures end-to-end ingest throughput past the HTTP
// edge for both wire formats: 8 concurrent instances, each decoding and
// applying a 512-event batch per op through its bounded queue and worker,
// barrier-synced. The jsonl leg decodes and admits line by line, as the
// handler does; the binary leg decodes one frame and admits it whole. Both
// admit through enqueueBatch. events/sec is the
// per-process ceiling; allocs/op is budgeted in scripts/alloc_budget.txt.
func BenchmarkServeIngest(b *testing.B) {
	const instances = 8
	const batch = 512
	lines := benchLines(batch)

	bench := func(b *testing.B, run func(in *instance, slot int)) {
		ins := benchInstances(b, instances)
		// One long-lived feeder goroutine per instance, so an op spawns
		// nothing: the measured allocations are the ingest path's own.
		var wg sync.WaitGroup
		start := make([]chan struct{}, len(ins))
		for i, in := range ins {
			start[i] = make(chan struct{})
			go func(i int, in *instance) {
				for range start[i] {
					run(in, i)
					in.barrier(nil)
					wg.Done()
				}
			}(i, in)
		}
		b.Cleanup(func() {
			for _, c := range start {
				close(c)
			}
		})
		iter := func() {
			wg.Add(len(ins))
			for _, c := range start {
				c <- struct{}{}
			}
			wg.Wait()
		}
		// Warm the estimator tables and every ring slot's Links buffer
		// (a slot allocates on its first footered beacon, and each op
		// writes batch slots), so 1x runs measure steady state. A
		// collection empties the runtime's central sudog cache, which
		// blocked channel and cond operations draw from: collect the
		// setup garbage now and refill the cache before measuring.
		for w := 0; w < benchQueueDepth/batch; w++ {
			iter()
		}
		runtime.GC()
		for w := 0; w < benchQueueDepth/batch; w++ {
			iter()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iter()
		}
		b.StopTimer()
		b.ReportMetric(float64(instances*batch*b.N)/b.Elapsed().Seconds(), "events/sec")
	}

	b.Run("jsonl", func(b *testing.B) {
		scratch := make([]jsonlScratch, instances)
		bench(b, func(in *instance, slot int) {
			js := &scratch[slot]
			for _, line := range lines {
				if err := js.dec.Decode(line, &js.ev[0]); err != nil {
					b.Error(err)
					return
				}
				admitAll(b, in, js.ev[:])
			}
		})
	})

	b.Run("binary", func(b *testing.B) {
		frame := benchFrame(b, lines)
		frs := make([]*wire.FrameReader, instances)
		rds := make([]*bytes.Reader, instances)
		for i := range frs {
			frs[i] = wire.NewFrameReader(nil, 0, false)
			rds[i] = bytes.NewReader(nil)
		}
		bench(b, func(in *instance, slot int) {
			rd, fr := rds[slot], frs[slot]
			rd.Reset(frame)
			fr.Reset(rd)
			for {
				evs, err := fr.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					b.Error(err)
					return
				}
				admitAll(b, in, evs)
			}
		})
	})
}
