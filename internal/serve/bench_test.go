package serve

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// footerSizes is the footer-length mix of a recorded feed, per mille:
// entry k is the share of beacons carrying k footer entries. Source: the
// 85 per-node feeds of `fourbitsim scenario -preset baseline -minutes 5
// -estfeed-dir DIR` (4B on Mirage, seed 1 — the run the serve-replay
// benchmark replays), 285,839 beacons. Footers stop at 8 entries, the
// default core.Config.FooterEntries; half the beacons carry all 8.
var footerSizes = [...]int{14, 22, 31, 40, 54, 67, 109, 142, 521}

// benchLines builds a representative wire stream: mostly footered beacons,
// some tx/rx/age — the shape a scenario feed replays. Footer lengths follow
// footerSizes, so the per-entry decode cost weighs as it does on a feed.
func benchLines(n int) [][]byte {
	r := sim.NewRand(0xBE7C)
	var now int64
	var seqs [32]uint16
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		now += 1 + r.Int63n(int64(sim.Second))
		src := 1 + r.Intn(18)
		var line string
		switch k := r.Intn(10); {
		case k < 6:
			seqs[src]++
			line = fmt.Sprintf(`{"ev":"beacon","at":%d,"src":%d,"seq":%d,"lqi":%d,"white":true`,
				now, src, seqs[src], 40+r.Intn(80))
			if links := make([]string, footerLen(r)); len(links) > 0 {
				for j := range links {
					links[j] = fmt.Sprintf(`{"addr":%d,"q":%d}`, r.Intn(85), r.Intn(256))
				}
				line += `,"links":[` + strings.Join(links, ",") + `]`
			}
			line += "}"
		case k < 8:
			line = fmt.Sprintf(`{"ev":"tx","at":%d,"dest":%d,"acked":%v}`, now, src, r.Bernoulli(0.7))
		case k < 9:
			line = fmt.Sprintf(`{"ev":"rx","at":%d,"src":%d,"lqi":%d}`, now, src, 40+r.Intn(60))
		default:
			line = fmt.Sprintf(`{"ev":"age","at":%d,"silence":%d}`, now, 2*int64(sim.Second))
		}
		out = append(out, []byte(line))
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
