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
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/giraffe"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seeds"
	"repro/internal/serve"
)

// Open-loop rates of the serve leg, well below the 1.4–1.6k req/s the
// in-process server saturates at on 2 vCPUs.
const (
	lightRPS = 300
	heavyRPS = 700
)

// server is an in-process serve.Server over a pipeline.Session, configured
// as cmd/giraffed configures it by default, listening on loopback.
type server struct {
	sess *pipeline.Session
	http *http.Server
	url  string
	errc chan error
}

// startServer builds the session and server over l. With rec set, the
// session's BatchMapper and the server's Extract are wrapped to record
// spans.
func startServer(l *loaded, workers int, rec *recorder) (*server, error) {
	reg := obs.NewRegistry(workers + 2)
	tracer := obs.NewReqTracer(workers, 32, 256, reg)
	m, err := core.NewMapperFromIndexes(l.f, l.ix.Dist, l.ix.Bi, core.Options{
		Threads: workers, BatchSize: batchSize, CacheCapacity: cacheCapacity, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	minIx := l.ix.MinIx
	var bm pipeline.BatchMapper = m
	extract := func(read *dna.Read) (seeds.ReadSeeds, error) { return giraffe.Preprocess(minIx, read) }
	if rec != nil {
		bm = tracedMapper{m: m, rec: rec}
		extract = func(read *dna.Read) (seeds.ReadSeeds, error) {
			t0 := rec.now()
			r, err := giraffe.Preprocess(minIx, read)
			_, req, _ := splitWireName(read.Name)
			rec.add(rec.newID(), req, spanExtract, t0, rec.now())
			return r, err
		}
	}
	sess, err := pipeline.NewSession(bm, pipeline.Options{Workers: workers, BatchSize: batchSize}, reg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Session: sess, Extract: extract, Reg: reg, Traces: tracer})
	if err != nil {
		sess.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sess.Close()
		return nil, err
	}
	s := &server{
		sess: sess,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/map",
		errc: make(chan error, 1),
	}
	go func() { s.errc <- s.http.Serve(ln) }()
	return s, nil
}

// close shuts the listener and handlers down, drains the session, and
// returns once the serving goroutine has exited.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.sess.Close()
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tracedMapper is the BatchMapper the traced session drives: it records a
// span around every sub-batch, parented to the client request that carries
// it, and forwards the epoch hook.
type tracedMapper struct {
	m   *core.Mapper
	rec *recorder
}

func (t tracedMapper) MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (gbwt.CacheStats, int) {
	t0 := t.rec.now()
	cs, n := t.m.MapBatchUntil(worker, recs, base, out, stop, sb)
	var req int64
	if len(recs) > 0 {
		_, req, _ = splitWireName(recs[0].Read.Name)
	}
	t.rec.add(t.rec.newID(), req, spanSubBatch, t0, t.rec.now())
	return cs, n
}

func (t tracedMapper) TryPublishEpoch(worker int) bool { return t.m.TryPublishEpoch(worker) }

// client is the load generator: at most conns connections, one request in
// flight on each. Request i carries the readsPerReq reads of group
// i mod groups, each name tagged with the request's id.
type client struct {
	hc     *http.Client
	url    string
	conns  int
	frags  [][2]string // per read: JSON text before and after the request id
	groups int
	next   int // request counter across phases
	ids    atomic.Int64
	rec    *recorder
	ref    *reference
}

func newClient(url string, conns int, in *inputs, rec *recorder) *client {
	c := &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		url:    url,
		conns:  conns,
		groups: len(in.reads) / readsPerReq,
		rec:    rec,
		ref:    in.all.ref,
	}
	for _, r := range in.reads {
		name, _ := json.Marshal(r.Name + "~")
		seq, _ := json.Marshal(r.Seq.String())
		c.frags = append(c.frags, [2]string{`{"name":` + string(name[:len(name)-1]), `","seq":` + string(seq) + `}`})
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// body builds request i's JSON and returns it with the request's id (its
// span id when traced).
func (c *client) body(i int) (int64, []byte) {
	var id int64
	if c.rec != nil {
		id = c.rec.newID()
	} else {
		id = c.ids.Add(1)
	}
	g := i % c.groups
	b := make([]byte, 0, 256*readsPerReq)
	b = append(b, `{"client":"perfbench","reads":[`...)
	for j := g * readsPerReq; j < (g+1)*readsPerReq; j++ {
		if j > g*readsPerReq {
			b = append(b, ',')
		}
		b = append(b, c.frags[j][0]...)
		b = strconv.AppendInt(b, id, 10)
		b = append(b, c.frags[j][1]...)
	}
	return id, append(b, "]}"...)
}

// sample is one request as the client saw it.
type sample struct {
	due, sent, done time.Time
	status          int
	err             error
	body            []byte
	group           int
}

// send posts one request and reads the whole response.
func (c *client) send(id int64, body []byte, s *sample) {
	s.sent = time.Now()
	var start int64
	if c.rec != nil {
		start = c.rec.now()
	}
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.done, s.err = time.Now(), err
	if c.rec != nil {
		c.rec.add(id, 0, spanRequest, start, c.rec.now())
	}
}

// openLoop sends n requests due at start + i/rate, whether or not earlier
// ones have returned; a request waits for a free connection past its due
// time, and that wait counts in its latency.
func (c *client) openLoop(rate float64, n int) []sample {
	out := make([]sample, n)
	first := c.next
	c.next += n
	start := time.Now()
	var claim atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claim.Add(1)) - 1
				if i >= n {
					return
				}
				id, body := c.body(first + i)
				s := &out[i]
				s.group = (first + i) % c.groups
				s.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(s.due))
				c.send(id, body, s)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps one request in flight per connection for d; each
// request is due when it is sent.
func (c *client) closedLoop(d time.Duration) (out []sample, start, end time.Time) {
	per := make([][]sample, c.conns)
	var next atomic.Int64
	next.Store(int64(c.next))
	start = time.Now()
	end = start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)) - 1
				id, body := c.body(i)
				s := sample{group: i % c.groups}
				c.send(id, body, &s)
				s.due = s.sent
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	c.next = int(next.Load())
	for _, p := range per {
		out = append(out, p...)
	}
	return out, start, end
}

// check counts failed requests: transport errors, non-2xx statuses, and 2xx
// responses whose extensions differ from the reference for their reads.
func (c *client) check(ss []sample) (failed int) {
	for i := range ss {
		if !c.ok(&ss[i]) {
			failed++
		}
		ss[i].body = nil
	}
	return failed
}

func (c *client) ok(s *sample) bool {
	if s.err != nil || s.status/100 != 2 {
		return false
	}
	var resp serve.MapResponse
	if err := json.Unmarshal(s.body, &resp); err != nil || len(resp.Results) != readsPerReq {
		return false
	}
	for j, r := range resp.Results {
		name, _, _ := splitWireName(r.Read)
		idx, known := c.ref.byName[name]
		if !known || idx != s.group*readsPerReq+j || !sameWire(r.Extensions, c.ref.exts[idx]) {
			return false
		}
	}
	return true
}

func sameWire(got []serve.WireExtension, want []wantExt) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.Node != w.node || g.Offset != w.offset || (g.Strand == "-") != w.rev || (g.Strand != "+" && g.Strand != "-") ||
			g.ReadStart != w.readStart || g.ReadEnd != w.readEnd || g.Score != w.score ||
			!slices.Equal(g.Mismatches, w.mismatches) {
			return false
		}
	}
	return true
}

// latenciesMs returns each 2xx request's latency from its due time.
func latenciesMs(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.err == nil && s.status/100 == 2 {
			out = append(out, float64(s.done.Sub(s.due))/float64(time.Millisecond))
		}
	}
	return out
}

// lagMs returns how late each request was sent against its due time.
func lagMs(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		out = append(out, max(0, float64(s.sent.Sub(s.due))/float64(time.Millisecond)))
	}
	return out
}

// windowRates cuts [start, end) into n equal windows and returns, for each
// window with two or more 2xx completions, the completion rate inside it:
// completions after the first, over the time from the first to the last.
func windowRates(ss []sample, start, end time.Time, n int) []float64 {
	w := end.Sub(start) / time.Duration(n)
	first := make([]time.Time, n)
	last := make([]time.Time, n)
	counts := make([]int, n)
	for _, s := range ss {
		if s.err != nil || s.status/100 != 2 || s.done.Before(start) || !s.done.Before(end) {
			continue
		}
		k := min(int(s.done.Sub(start)/w), n-1)
		if counts[k] == 0 || s.done.Before(first[k]) {
			first[k] = s.done
		}
		if s.done.After(last[k]) {
			last[k] = s.done
		}
		counts[k]++
	}
	var rates []float64
	for k, c := range counts {
		if c >= 2 {
			rates = append(rates, float64(c-1)/last[k].Sub(first[k]).Seconds())
		}
	}
	return rates
}

// serveRun is the outcome of the serve leg's phases.
type serveRun struct {
	light, heavy, sat []sample
	satRPS            float64
	failed, attempts  int
}

// phaseShares split each cycle between the light, heavy and saturated
// phases. A p99 needs 1000 light requests: 9.5 s of serve leg.
var phaseShares = [3]float64{0.35, 0.25, 0.40}

// serveCycle is the target length of one turn through the phases. The leg
// takes turns instead of running each phase once, so a slow stretch of the
// host lands on every phase alike and moves no phase's median unless it
// covers half the run.
const serveCycle = 3 * time.Second

// satWindows is how many windows each saturated turn is cut into; the
// saturated throughput is the median window's.
const satWindows = 2

// warmupRequests run closed-loop before the phases (checked, not timed).
const warmupRequests = 64

// minCycles is the fewest turns a serve leg takes.
const minCycles = minSetupReps - 1

// runServe drives the phases against c for a total of d. With satOnly, only
// the saturated phase runs. setup, when set, runs before the warm-up and
// again at the start of every turn; it replaces the server c talks to.
func runServe(c *client, d time.Duration, satOnly bool, setup func() error) (serveRun, error) {
	var r serveRun
	if setup == nil {
		setup = func() error { return nil }
	}
	if err := setup(); err != nil {
		return r, err
	}
	warm := c.openLoop(1e6, warmupRequests)
	r.failed += c.check(warm)
	r.attempts += len(warm)
	cycles := max(minCycles, int((d+serveCycle/2)/serveCycle))
	cycle := d / time.Duration(cycles)
	var rates []float64
	for i := 0; i < cycles; i++ {
		if err := setup(); err != nil {
			return r, err
		}
		satDur := cycle
		if !satOnly {
			secs := cycle.Seconds()
			light := c.openLoop(lightRPS, max(1, int(lightRPS*phaseShares[0]*secs)))
			heavy := c.openLoop(heavyRPS, max(1, int(heavyRPS*phaseShares[1]*secs)))
			r.failed += c.check(light) + c.check(heavy)
			r.attempts += len(light) + len(heavy)
			r.light = append(r.light, light...)
			r.heavy = append(r.heavy, heavy...)
			satDur = time.Duration(phaseShares[2] * float64(cycle))
		}
		sat, start, end := c.closedLoop(satDur)
		rates = append(rates, windowRates(sat, start, end, satWindows)...)
		r.failed += c.check(sat)
		r.attempts += len(sat)
		r.sat = append(r.sat, sat...)
	}
	r.satRPS = median(rates)
	if r.satRPS == 0 {
		return r, fmt.Errorf("serve: no request completed in the saturated phase (%d of %d failed)", r.failed, r.attempts)
	}
	return r, nil
}
