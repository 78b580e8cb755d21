package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/packet"
	"fourbit/internal/scenario"
	"fourbit/internal/serve"
	"fourbit/internal/serve/client"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// serveWorkload replays recorded estimator feeds over loopback HTTP into
// one serve instance per node: a closed-loop ingest connection beside an
// open-loop reader. The fields are the sizes tests shrink.
type serveWorkload struct {
	feedMinutes float64       // simulated minutes of the recorded 4B Mirage run
	warmup      time.Duration // traffic before the measured window, discarded
	setupReps   int
}

func defaultServe() *serveWorkload {
	return &serveWorkload{feedMinutes: 5, warmup: 2 * time.Second, setupReps: 40}
}

// jsonlEvery puts one event in jsonlEvery on JSONL instances, the rest on
// binary batches, so that each codec takes about half the server's decode
// time: BenchmarkServeIngest (BENCH_2026-08-08.4.json) decodes 2.13M JSONL
// and 8.56M binary events/s, a ratio of 4.0, and 1/(1+4.0) is 1/5.
const jsonlEvery = 5

// ingestBatch is the events per ingest POST: the client's default batch.
const ingestBatch = wire.DefaultBatchEvents

func (w *serveWorkload) params(f *feeds) map[string]any {
	return map[string]any{"feed": fmt.Sprintf("4B on mirage-85, run seed %d, %g simulated min", feedSeed, w.feedMinutes),
		"batch_events": ingestBatch, "jsonl_share": fmt.Sprintf("1/%d of events", jsonlEvery), "jsonl_instances": f.jsonlInstances,
		"read_rate_per_s": f.readRate, "table_share": f.tableShare,
		"warmup_s": w.warmup.Seconds(), "connections": 2}
}

// feeds is the recorded input: each node's estimator event stream.
type feeds struct {
	seed           uint64
	cfg            core.Config
	nodes          []packet.Addr
	events         [][]wire.Event
	total          int      // events in one pass over every node
	span           sim.Time // latest event time plus a second; each pass shifts by it
	srcs           [][]packet.Addr
	isJSONL        []bool // instances that ingest JSONL
	jsonlInstances int
	// readRate and tableShare are the open-loop reader's load, derived from
	// the recorded run's own reads (see readCounter).
	readRate   float64
	tableShare float64
}

// readCounter counts the reads the recorded run's stack makes of its
// estimator: Table for parent selection and Quality for one neighbor.
type readCounter struct {
	core.LinkEstimator
	quality, table *int
}

func (c readCounter) Quality(a packet.Addr) (float64, bool) {
	*c.quality++
	return c.LinkEstimator.Quality(a)
}

func (c readCounter) Table() *core.Table {
	*c.table++
	return c.LinkEstimator.Table()
}

// feedSeed fixes the recorded run: the feed's size and event mix vary
// several-fold between runs of the network (a settled tree beacons
// rarely), which would swamp the service's own cost. The benchmark seed
// drives everything else the workload sends: which instances ingest
// JSONL, the reads, and the control node.
const feedSeed = 1

// lineDecoder is the io.Writer a FeedRecorder writes to: it decodes each
// line as it arrives (the recorder writes one whole line per call), so the
// JSONL text is never held in memory.
type lineDecoder struct {
	dec  wire.EventDecoder
	evs  []wire.Event
	srcs []packet.Addr
	seen map[packet.Addr]bool
}

func (d *lineDecoder) Write(line []byte) (int, error) {
	var ev wire.Event
	if err := d.dec.Decode(bytes.TrimSuffix(line, []byte("\n")), &ev); err != nil {
		return 0, err
	}
	ev.Links = append([]packet.LinkEntry(nil), ev.Links...)
	d.evs = append(d.evs, ev)
	if ev.Ev != wire.EvAge && !d.seen[ev.Src] {
		d.seen[ev.Src] = true
		d.srcs = append(d.srcs, ev.Src)
	}
	return len(line), nil
}

// recordFeeds runs 4B on Mirage with every node's estimator wrapped in a
// serve.FeedRecorder, and counts the stack's reads of the estimators. This
// is the generator's work, outside set-up and the measured window.
//
// The reader's load comes from those counts. The table share is the share
// of Table calls among the reads. The rate is one node's reads per
// simulated second, sent in real time: the whole network's (about 2600/s on this feed) is
// out of reach of one open-loop connection whose barrier-synced reads take
// about a millisecond, let alone that load scaled up to the replay speed.
func recordFeeds(seed uint64, minutes float64) (*feeds, error) {
	spec := scenario.Spec{Protocol: "4B", Topology: scenario.TopoSpec{Kind: "mirage"}, Seed: feedSeed, DurationMin: minutes}
	rc, err := spec.RunConfig()
	if err != nil {
		return nil, err
	}
	cfg, err := experiment.EstimatorConfig(experiment.Proto4B)
	if err != nil {
		return nil, err
	}
	type tap struct {
		addr packet.Addr
		dec  *lineDecoder
		rec  *serve.FeedRecorder
	}
	var taps []tap
	var quality, table int
	rc.WrapEstimator = func(addr packet.Addr, est core.LinkEstimator) core.LinkEstimator {
		t := tap{addr: addr, dec: &lineDecoder{seen: map[packet.Addr]bool{}}}
		t.rec = serve.NewFeedRecorder(est, t.dec)
		taps = append(taps, t)
		return readCounter{t.rec, &quality, &table}
	}
	res := experiment.Run(rc)
	if quality+table == 0 {
		return nil, errors.New("the recorded run read no estimator")
	}
	f := &feeds{seed: seed, cfg: cfg, tableShare: float64(table) / float64(quality+table),
		readRate: float64(quality+table) / float64(len(taps)) / res.Duration.Seconds()}
	for _, t := range taps {
		if err := t.rec.Err(); err != nil {
			return nil, fmt.Errorf("node %d feed: %w", t.addr, err)
		}
		if len(t.dec.evs) == 0 {
			continue
		}
		f.nodes = append(f.nodes, t.addr)
		f.events = append(f.events, t.dec.evs)
		f.srcs = append(f.srcs, t.dec.srcs)
		f.total += len(t.dec.evs)
		f.span = max(f.span, t.dec.evs[len(t.dec.evs)-1].At)
	}
	if f.total == 0 {
		return nil, errors.New("recorded feeds are empty")
	}
	f.span += sim.Second
	f.pickJSONL()
	return f, nil
}

func instanceName(addr packet.Addr) string { return fmt.Sprintf("node-%d", addr) }

// pickJSONL puts instances on JSONL, in a seed-chosen order, until they
// carry one event in jsonlEvery. Feeds differ several-fold in size, so a
// fixed share of instances would leave the JSONL share of events, and with
// it the ingest cost, to the seed.
func (f *feeds) pickJSONL() {
	f.isJSONL = make([]bool, len(f.nodes))
	rng := sim.NewRand(f.seed ^ 0x6a736f6e)
	n := 0
	for _, i := range rng.Perm(len(f.nodes)) {
		if n*jsonlEvery >= f.total {
			break
		}
		f.isJSONL[i] = true
		f.jsonlInstances++
		n += len(f.events[i])
	}
}

// instanceSeed is the estimator seed of the instance serving node i.
func (f *feeds) instanceSeed(i int) uint64 { return f.seed*1000 + uint64(i) }

// benchTransport counts every request the benchmark makes and, in the
// traced run, stamps it with a request ID its server-side span shares.
type benchTransport struct {
	base      *http.Transport
	tr        *tracer
	name      string
	parent    atomic.Uint64 // span the next client span is a child of
	attempted atomic.Int64
	failed    atomic.Int64
	measuring atomic.Bool // record latencies
	mu        sync.Mutex
	latMS     []float64
}

const reqHeader = "X-Bench-Req"

func newBenchTransport(tr *tracer, name string) *benchTransport {
	return &benchTransport{
		base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		tr:   tr,
		name: name,
	}
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var id uint64
	if t.tr != nil {
		id = t.tr.id()
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.attempted.Add(1)
	if err != nil || resp.StatusCode/100 != 2 {
		t.failed.Add(1)
	}
	if t.measuring.Load() {
		t.mu.Lock()
		t.latMS = append(t.latMS, msOf(end.Sub(start)))
		t.mu.Unlock()
	}
	t.tr.add(span{ID: id, Parent: t.parent.Load(), Req: id, Name: "http " + t.name, Layer: "http",
		Start: t.tr.since(start), End: t.tr.since(end)})
	return resp, err
}

// handlerSpans wraps Server.ServeHTTP with a timer whose span is the
// child of the client span named by the request header. The route names
// the layer: /events is ingest, /table and /quality are queries, and the
// rest (instance creation, stats) is administration.
func handlerSpans(srv *serve.Server, tr *tracer) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		srv.ServeHTTP(rw, r)
		end := time.Now()
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		layer := "serve.admin"
		switch path.Base(r.URL.Path) {
		case "events":
			layer = "serve.ingest"
		case "table", "quality":
			layer = "serve.query"
		}
		tr.add(span{Parent: id, Req: id, Name: "serve.Server.ServeHTTP " + r.Method + " " + path.Base(r.URL.Path), Layer: layer,
			Start: tr.since(start), End: tr.since(end)})
	})
}

// liveServer is a started server with the feeds' instances created.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer starts a server on a loopback port and creates one
// instance per fed node; the set-up a user pays before the first event.
func startServer(f *feeds, tr *tracer, hc *http.Client) (*liveServer, error) {
	srv := serve.NewServer(serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = handlerSpans(srv, tr)
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	for i, addr := range f.nodes {
		cfg := f.cfg
		if err := client.CreateInstance(hc, ls.base, instanceName(addr), core.KindFourBit, addr, f.instanceSeed(i), &cfg); err != nil {
			ls.stop()
			return nil, err
		}
	}
	return ls, nil
}

// stop shuts the HTTP server down, drains every instance and waits for
// the serve loop to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if derr := ls.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serveRun is what one serve session measured.
type serveRun struct {
	setupS        []float64
	events        int64
	window        time.Duration
	winLo, winHi  int64   // the window on the tracer's timeline, for the handler spans
	sliceEvents   []int64 // events per rateSlice of the window, by POST start
	ingest        latency
	query         latency
	genLag        latency
	attempted     int64
	failed        int64
	checkErr      error
	flushes       uint64
	retries       uint64
	backpressured uint64
	applied       uint64
	dropped       uint64
	queueDepth    []float64
}

// session is one server under load: the clients of both connections and
// the span the session's spans hang under.
type session struct {
	w               *serveWorkload
	f               *feeds
	tr              *tracer
	parent          uint64
	ingestT, queryT *benchTransport
	ingestC, queryC *http.Client
	ls              *liveServer
}

// run performs one session: set-up (repeated untraced, the last server is
// kept; once when traced), warm-up, the measured window, then the answer
// checks.
func (w *serveWorkload) run(f *feeds, seconds float64, tr *tracer, parent uint64) (*serveRun, error) {
	s := &session{w: w, f: f, tr: tr, parent: parent,
		ingestT: newBenchTransport(tr, "ingest"), queryT: newBenchTransport(tr, "query")}
	s.ingestC, s.queryC = &http.Client{Transport: s.ingestT}, &http.Client{Transport: s.queryT}
	s.ingestT.parent.Store(parent)
	s.queryT.parent.Store(parent)
	defer s.ingestT.base.CloseIdleConnections()
	defer s.queryT.base.CloseIdleConnections()
	out := &serveRun{}
	reps := w.setupReps
	if tr != nil {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		if s.ls != nil {
			if err := s.ls.stop(); err != nil {
				return nil, err
			}
		}
		debug.FreeOSMemory() // every set-up starts from the same heap
		sid := tr.id()
		s.ingestT.parent.Store(sid)
		start := time.Now()
		ls, err := startServer(f, tr, s.ingestC)
		if err != nil {
			return nil, err
		}
		s.ls = ls
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		tr.add(span{ID: sid, Parent: parent, Name: "bench.setup", Layer: "bench", Start: tr.since(start), End: tr.since(time.Now())})
		s.ingestT.parent.Store(parent)
	}
	err := s.measure(seconds, out)
	if serr := s.ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// measure drives the warm-up and the window, then runs the checks.
func (s *session) measure(seconds float64, out *serveRun) error {
	s.ingestT.attempted.Store(0)
	s.ingestT.failed.Store(0)
	start := time.Now()
	warmEnd := start.Add(s.w.warmup)
	stopAt := warmEnd.Add(time.Duration(seconds * float64(time.Second)))
	out.winLo, out.winHi = s.tr.since(warmEnd), s.tr.since(stopAt)

	feedsOut := make([]*client.Feed, len(s.f.nodes))
	for i, addr := range s.f.nodes {
		feedsOut[i] = client.New(s.ls.base, instanceName(addr), client.Options{JSONL: s.f.isJSONL[i], HTTPClient: s.ingestC})
	}
	var wg sync.WaitGroup
	var ingestErr, queryErr error
	var qLat, lag []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		ingestErr = s.ingest(feedsOut, warmEnd, stopAt, out)
	}()
	go func() {
		defer wg.Done()
		qLat, lag, queryErr = s.query(start, warmEnd, stopAt)
	}()
	var depthStop chan struct{}
	var depthDone chan []float64
	if s.tr != nil {
		depthStop, depthDone = make(chan struct{}), make(chan []float64, 1)
		go func() { depthDone <- sampleQueueDepth(s.ls.srv, s.f, depthStop) }()
	}
	wg.Wait()
	if depthStop != nil {
		close(depthStop)
		out.queueDepth = <-depthDone
	}
	if ingestErr != nil {
		return ingestErr
	}
	if queryErr != nil {
		return queryErr
	}
	s.ingestT.mu.Lock()
	out.ingest = summarize(s.ingestT.latMS)
	s.ingestT.mu.Unlock()
	out.query, out.genLag = summarize(qLat), summarize(lag)

	cid := s.tr.id()
	s.ingestT.parent.Store(cid)
	s.queryT.parent.Store(cid)
	checkStart := time.Now()
	for _, fd := range feedsOut {
		if err := fd.Flush(); err != nil {
			return err
		}
		st := fd.Stats()
		out.flushes += st.Flushes
		out.retries += st.Retries
	}
	out.checkErr = s.checkInstances(out)
	if out.checkErr == nil {
		out.checkErr = s.checkControl()
	}
	s.tr.add(span{ID: cid, Parent: s.parent, Name: "bench.check", Layer: "bench", Start: s.tr.since(checkStart), End: s.tr.since(time.Now())})
	s.ingestT.parent.Store(s.parent)
	s.queryT.parent.Store(s.parent)
	out.attempted = s.ingestT.attempted.Load() + s.queryT.attempted.Load()
	out.failed = s.ingestT.failed.Load() + s.queryT.failed.Load()
	return nil
}

// rateSlice is the width of the slices whose median ingest rate is the
// reported rate: a host stall of a few hundred milliseconds then moves
// one slice, not the result.
const rateSlice = time.Second

// sliceRates returns the events per second of each whole slice.
func (r *serveRun) sliceRates() []float64 {
	rates := make([]float64, int(r.window/rateSlice))
	for i := range rates {
		rates[i] = float64(r.sliceEvents[i]) / rateSlice.Seconds()
	}
	return rates
}

// rate is the median events per second over the window's whole slices, or
// the window's mean rate when it holds fewer than three.
func (r *serveRun) rate() float64 {
	rates := r.sliceRates()
	if len(rates) < 3 {
		return float64(r.events) / r.window.Seconds()
	}
	return median(rates)
}

// ingest is the closed-loop writer: round robin over the instances, one
// POST of the next ingestBatch events each, every pass over a node's feed
// shifted by the feed span so timestamps never run backward. The window's
// events are those of the POSTs that start inside it.
func (s *session) ingest(out []*client.Feed, warmEnd, stopAt time.Time, res *serveRun) error {
	f, batch := s.f, ingestBatch
	cursor := make([]int, len(out)) // events sent per instance, over all passes
	var winStart time.Time
	var ev wire.Event
	for {
		for i, fd := range out {
			now := time.Now()
			if now.After(stopAt) {
				s.ingestT.measuring.Store(false)
				s.ingestT.parent.Store(s.parent)
				res.window = now.Sub(winStart)
				return nil
			}
			if winStart.IsZero() && now.After(warmEnd) {
				s.ingestT.measuring.Store(true)
				winStart = now
			}
			id := s.tr.id()
			s.ingestT.parent.Store(id)
			evs := f.events[i]
			for k := 0; k < batch; k++ {
				c := cursor[i]
				ev = evs[c%len(evs)]
				ev.At += sim.Time(c/len(evs)) * f.span
				if err := fd.Send(&ev); err != nil { // the batch's last Send posts it
					return fmt.Errorf("ingest %s: %w", instanceName(f.nodes[i]), err)
				}
				cursor[i]++
			}
			s.tr.add(span{ID: id, Parent: s.parent, Name: "client.Feed.Send", Layer: "client",
				Start: s.tr.since(now), End: s.tr.since(time.Now())})
			if !winStart.IsZero() {
				res.events += int64(batch)
				k := int(now.Sub(winStart) / rateSlice)
				for len(res.sliceEvents) <= k {
					res.sliceEvents = append(res.sliceEvents, 0)
				}
				res.sliceEvents[k] += int64(batch)
			}
		}
	}
}

// query is the open-loop reader: read k is due at start + k/rate and is
// timed from when it was due, so a stall also delays the reads queued
// behind it. It returns the window's read latencies and how late each
// read was sent.
func (s *session) query(start, warmEnd, stopAt time.Time) ([]float64, []float64, error) {
	f := s.f
	interval := time.Duration(float64(time.Second) / f.readRate)
	rng := sim.NewRand(f.seed ^ 0x71756572)
	var lat, lag []float64
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.After(stopAt) {
			return lat, lag, nil
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		i := rng.Intn(len(f.nodes))
		url := s.ls.base + "/v1/instances/" + instanceName(f.nodes[i])
		if rng.Float64() < f.tableShare {
			url += "/table"
		} else {
			url += "/quality?addr=" + strconv.Itoa(int(f.srcs[i][rng.Intn(len(f.srcs[i]))]))
		}
		resp, err := s.queryC.Get(url)
		if err != nil {
			return nil, nil, fmt.Errorf("read %s: %w", url, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("read %s: %w", url, err)
		}
		if !due.Before(warmEnd) {
			lat = append(lat, msOf(time.Since(due)))
			lag = append(lag, msOf(sent.Sub(due)))
		}
	}
}

// sampleQueueDepth polls instance queue depths in process every 2 ms
// until stop closes, through the server's own stats route.
func sampleQueueDepth(srv *serve.Server, f *feeds, stop <-chan struct{}) []float64 {
	var depths []float64
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return depths
		case <-t.C:
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/instances/"+instanceName(f.nodes[i%len(f.nodes)])+"/stats", nil))
		var st struct {
			Queued int `json:"queued"`
		}
		if json.Unmarshal(rec.Body.Bytes(), &st) == nil {
			depths = append(depths, float64(st.Queued))
		}
	}
}

// instanceStats is the part of /stats the checks read.
type instanceStats struct {
	Robust serve.RobustStats `json:"robust"`
}

// checkInstances runs a barrier on every instance (a /table read waits for
// its queue to drain), then requires every admitted event applied, none
// malformed and none out of order.
func (s *session) checkInstances(out *serveRun) error {
	base, hc := s.ls.base, s.queryC
	for _, addr := range s.f.nodes {
		name := instanceName(addr)
		if err := getJSON(hc, base+"/v1/instances/"+name+"/table", &tableResp{}); err != nil {
			return err
		}
		var st instanceStats
		if err := getJSON(hc, base+"/v1/instances/"+name+"/stats", &st); err != nil {
			return err
		}
		r := st.Robust
		out.applied += r.Applied
		out.backpressured += r.Backpressured
		out.dropped += r.DroppedOldest
		switch {
		case r.Enqueued != r.Applied:
			return fmt.Errorf("%s: enqueued %d, applied %d after the barrier", name, r.Enqueued, r.Applied)
		case r.Malformed != 0:
			return fmt.Errorf("%s: %d malformed events", name, r.Malformed)
		case r.OutOfOrder != 0:
			return fmt.Errorf("%s: %d out-of-order events", name, r.OutOfOrder)
		}
	}
	return nil
}

// tableRow is one neighbor of a /table response.
type tableRow struct {
	Addr   packet.Addr `json:"addr"`
	ETXHex string      `json:"etx_hex"`
	HasETX bool        `json:"has_etx"`
}

type tableResp struct {
	Neighbors []tableRow `json:"neighbors"`
}

// getJSON decodes the body of a 2xx GET into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// controlNode picks the node whose single pass feeds the control instance.
func (f *feeds) controlNode() int { return int(f.seed % uint64(len(f.nodes))) }

// checkControl feeds a fresh control instance exactly one pass of a
// node's feed and requires its table to match, bit for bit, a local
// estimator of the same kind, seed and config given the same events.
func (s *session) checkControl() error {
	f, base, ingestC, queryC := s.f, s.ls.base, s.ingestC, s.queryC
	i := f.controlNode()
	addr, seed := f.nodes[i], f.instanceSeed(i)
	const name = "control"
	cfg := f.cfg
	if err := client.CreateInstance(ingestC, base, name, core.KindFourBit, addr, seed, &cfg); err != nil {
		return err
	}
	fd := client.New(base, name, client.Options{HTTPClient: ingestC})
	for k := range f.events[i] {
		if err := fd.Send(&f.events[i][k]); err != nil {
			return err
		}
	}
	if err := fd.Flush(); err != nil {
		return err
	}
	var tab tableResp
	if err := getJSON(queryC, base+"/v1/instances/"+name+"/table", &tab); err != nil {
		return err
	}
	local, err := localEstimator(f, i)
	if err != nil {
		return err
	}
	return compareTable(tab.Neighbors, local)
}

// localEstimator applies node i's single-pass feed to a local estimator
// built the way the server builds an instance.
func localEstimator(f *feeds, i int) (core.LinkEstimator, error) {
	est, err := core.NewKind(core.KindFourBit, f.nodes[i], f.cfg, nil, sim.NewCountedRand(f.instanceSeed(i)))
	if err != nil {
		return nil, err
	}
	var le packet.LEFrame
	for _, ev := range f.events[i] {
		meta := core.RxMeta{White: ev.White, LQI: ev.LQI, SNRdB: ev.SNR}
		switch ev.Ev {
		case wire.EvBeacon:
			le.Seq, le.Entries = ev.Seq, ev.Links
			est.OnBeacon(ev.Src, &le, meta, ev.At)
		case wire.EvTx:
			est.TxResult(ev.Src, ev.Acked)
		case wire.EvRx:
			est.OnOverhear(ev.Src, meta, ev.At)
		case wire.EvAge:
			est.Age(ev.Silence, ev.At)
		}
	}
	return est, nil
}

// compareTable requires the served rows to equal the local estimator's
// table: same neighbors in the same order, same ETX bits.
func compareTable(rows []tableRow, est core.LinkEstimator) error {
	entries := est.Table().Entries()
	if len(rows) != len(entries) {
		return fmt.Errorf("control table has %d neighbors, the local estimator %d", len(rows), len(entries))
	}
	for k, e := range entries {
		etx, ok := est.Quality(e.Addr)
		want := tableRow{Addr: e.Addr, HasETX: ok}
		if ok {
			want.ETXHex = strconv.FormatFloat(etx, 'x', -1, 64)
		}
		if rows[k] != want {
			return fmt.Errorf("control table row %d is %+v, the local estimator's %+v", k, rows[k], want)
		}
	}
	return nil
}

// wireCost times the workload's own events through the binary codec:
// encoding every instance's feed into frames of ingestBatch as the client
// does (wire.AppendEvent per event, wire.AppendFrame per batch), and decoding
// those frames through wire.FrameReader. Both repeat for at least 200 ms.
func wireCost(f *feeds) (encNS, decNS float64, err error) {
	var stream []byte
	var rec []byte
	encode := func() error {
		stream = stream[:0]
		for _, evs := range f.events {
			for lo := 0; lo < len(evs); lo += ingestBatch {
				hi := min(lo+ingestBatch, len(evs))
				rec = rec[:0]
				for k := lo; k < hi; k++ {
					if rec, err = wire.AppendEvent(rec, &evs[k]); err != nil {
						return err
					}
				}
				stream = wire.AppendFrame(stream, rec, hi-lo)
			}
		}
		return nil
	}
	var n int
	start := time.Now()
	for n == 0 || time.Since(start) < 200*time.Millisecond {
		if err := encode(); err != nil {
			return 0, 0, err
		}
		n++
	}
	encNS = float64(time.Since(start)) / float64(n*f.total)
	fr := wire.NewFrameReader(nil, 0, false)
	n = 0
	start = time.Now()
	for n == 0 || time.Since(start) < 200*time.Millisecond {
		fr.Reset(bytes.NewReader(stream))
		got := 0
		for {
			evs, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			got += len(evs)
		}
		if got != f.total {
			return 0, 0, fmt.Errorf("decoded %d events, encoded %d", got, f.total)
		}
		n++
	}
	decNS = float64(time.Since(start)) / float64(n*f.total)
	return encNS, decNS, nil
}

// networkSeconds converts an event rate into seconds of the whole
// network's recorded traffic per second.
func (f *feeds) networkSeconds(eventsPerS float64) float64 {
	return eventsPerS / float64(f.total) * f.span.Seconds()
}
