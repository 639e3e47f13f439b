package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"harmony/internal/client"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/server"
	"harmony/internal/space"
)

// onlineSession is the protocol-independent session surface: the
// JSON Session and the binary MuxSession both provide it.
type onlineSession interface {
	Fetch() (map[string]string, bool, error)
	Report(perf float64) error
	Best() (map[string]string, float64, error)
	Done() error
}

// onlineSize scales the online-mixed workload.
type onlineSize struct {
	live    int // live sessions per client
	rounds  int // fetch/report rounds each client completes
	maxRuns int // tuning-run budget of each session
}

// sessionSpec is the plan of one session, a pure function of the
// workload seed and the session's global index.
type sessionSpec struct {
	index    int
	mode     drive  // sequential, parallel fan-out, or async window
	strategy string // simplex, pro, or random
	seed     int64
	opt      [3]int64 // the objective's optimum
}

var onlineStrategies = []string{proto.StrategySimplex, proto.StrategyPRO, proto.StrategyRandom}

func onlineSpace() *space.Space {
	return space.MustNew(
		space.IntParam("x", 0, 63, 1),
		space.IntParam("y", 0, 63, 1),
		space.IntParam("z", 0, 63, 1),
	)
}

func specFor(seed int64, index int) sessionSpec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(index)))
	sp := sessionSpec{
		index:    index,
		mode:     drive(index % 3),
		strategy: onlineStrategies[(index/3)%3],
		seed:     rng.Int63n(1 << 30),
	}
	for i := range sp.opt {
		sp.opt[i] = 8 + rng.Int63n(48)
	}
	return sp
}

// value is the session's cheap deterministic objective: a bowl around
// the optimum, so evaluation costs nothing and the benchmark measures
// the tuning service.
func (s sessionSpec) value(values map[string]string) (float64, error) {
	v := 10.0
	for i, name := range []string{"x", "y", "z"} {
		x, err := strconv.ParseInt(values[name], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parameter %s: %w", name, err)
		}
		d := float64(x - s.opt[i])
		v += d * d
	}
	return v, nil
}

func (s sessionSpec) registration(sp *space.Space, maxRuns int) client.Registration {
	return client.Registration{
		App:      fmt.Sprintf("online-mixed-%d", s.index),
		Space:    sp,
		Strategy: s.strategy,
		MaxRuns:  maxRuns,
		Seed:     s.seed,
		Parallel: s.mode == driveBatch,
		Async:    s.mode == driveAsync,
	}
}

// strategyFor builds the strategy the server builds for the session
// (server.buildStrategy), for the replay.
func (s sessionSpec) strategyFor(sp *space.Space, maxRuns int) search.Strategy {
	switch s.strategy {
	case proto.StrategyPRO:
		return search.NewPRO(sp, search.PROOptions{Seed: s.seed})
	case proto.StrategyRandom:
		return search.NewRandom(sp, s.seed, maxRuns)
	}
	return search.NewSimplex(sp, search.SimplexOptions{})
}

// liveSession is one session a client is driving.
type liveSession struct {
	spec  sessionSpec
	s     onlineSession
	first float64
	best  float64
	log   []logged
	// rounds counts the session's completed fetch/report rounds.
	rounds int
}

// sessionResult is a converged session's outcome.
type sessionResult struct {
	spec        sessionSpec
	rounds      int
	first, best float64
	log         []logged
}

// onlineClient drives its sessions closed-loop: one operation in
// flight at a time, round-robin over its live sessions, replacing
// each converged session with a fresh registration, until it has
// completed its quota of rounds. A fixed round quota, rather than a
// fixed session count, keeps the work of a run the same for every
// seed.
type onlineClient struct {
	proto    string
	register func(client.Registration) (onlineSession, error)
	// index is the client's number; its j-th session has global index
	// 2j+index, so both clients cycle through every mode and strategy.
	index   int
	opened  int
	rounds  int
	live    []*liveSession
	results []sessionResult
	samples []sampleRound // the first rounds' messages, for the codec timing
	e       *env
	sp      *space.Space
	maxRuns int
}

// sampleRound keeps one round's configuration and report for the
// codec timing.
type sampleRound struct {
	session string
	values  map[string]string
	perf    float64
}

const codecSample = 256

func (c *onlineClient) start(n int) error {
	for len(c.live) < n {
		if err := c.open(); err != nil {
			return err
		}
	}
	return nil
}

func (c *onlineClient) open() error {
	spec := specFor(c.e.seed, 2*c.opened+c.index)
	c.opened++
	id := c.e.tr.begin("client.register", spec.index, -1)
	t0 := time.Now()
	s, err := c.register(spec.registration(c.sp, c.maxRuns))
	c.e.tr.sample("client.register_us."+c.proto, usSince(t0))
	c.e.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s register session %d: %w", c.proto, spec.index, err)
	}
	c.live = append(c.live, &liveSession{spec: spec, s: s, first: math.NaN(), best: math.Inf(1)})
	return nil
}

func (c *onlineClient) run(quota int) error {
	for i := 0; c.rounds < quota; {
		if i >= len(c.live) {
			i = 0
		}
		ls := c.live[i]
		id := c.e.tr.begin("client.fetch", ls.spec.index, -1)
		t0 := time.Now()
		values, converged, err := ls.s.Fetch()
		t1 := time.Now()
		c.e.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s fetch, session %d: %w", c.proto, ls.spec.index, err)
		}
		if converged {
			if err := c.finish(ls, true); err != nil {
				return err
			}
			c.live = append(c.live[:i], c.live[i+1:]...)
			if err := c.open(); err != nil {
				return err
			}
			continue
		}
		v, err := ls.spec.value(values)
		if err != nil {
			return fmt.Errorf("%s session %d: %w", c.proto, ls.spec.index, err)
		}
		id = c.e.tr.begin("client.report", ls.spec.index, -1)
		t2 := time.Now()
		if err := ls.s.Report(v); err != nil {
			return fmt.Errorf("%s report, session %d: %w", c.proto, ls.spec.index, err)
		}
		t3 := time.Now()
		c.e.tr.end(id)
		c.e.rounds.add(t3.Sub(t0))
		if c.e.tr != nil {
			c.e.tr.sample("client.fetch_us."+c.proto, float64(t1.Sub(t0))/1e3)
			c.e.tr.sample("client.report_us."+c.proto, float64(t3.Sub(t2))/1e3)
			pt, err := c.sp.Encode(values)
			if err != nil {
				return fmt.Errorf("%s session %d: %w", c.proto, ls.spec.index, err)
			}
			ls.log = append(ls.log, logged{pt: pt, value: v})
			if len(c.samples) < codecSample {
				c.samples = append(c.samples, sampleRound{session: strconv.Itoa(ls.spec.index), values: values, perf: v})
			}
		}
		if math.IsNaN(ls.first) {
			ls.first = v
		}
		ls.best = math.Min(ls.best, v)
		ls.rounds++
		c.rounds++
		i++
	}
	for _, ls := range c.live {
		if err := c.finish(ls, false); err != nil {
			return err
		}
	}
	c.live = nil
	return nil
}

// finish ends a session and records its result. For a converged
// session it first checks Best against what the client reported; a
// session cut short by the quota may hold reports its strategy has
// not been given yet (a partial parallel round), so its Best is not
// checked, and one that has reported nothing is only ended.
func (c *onlineClient) finish(ls *liveSession, converged bool) error {
	if converged {
		values, perf, err := ls.s.Best()
		if err != nil {
			return fmt.Errorf("%s best, session %d: %w", c.proto, ls.spec.index, err)
		}
		c.e.check(perf == ls.best,
			"%s session %d: Best %v, minimum reported %v", c.proto, ls.spec.index, perf, ls.best)
		bestVal, err := ls.spec.value(values)
		c.e.check(err == nil && bestVal == perf,
			"%s session %d: Best configuration %v evaluates to %v, Best says %v", c.proto, ls.spec.index, values, bestVal, perf)
	}
	if err := ls.s.Done(); err != nil {
		return fmt.Errorf("%s done, session %d: %w", c.proto, ls.spec.index, err)
	}
	if ls.rounds > 0 {
		c.results = append(c.results, sessionResult{spec: ls.spec, rounds: ls.rounds, first: ls.first, best: ls.best, log: ls.log})
	}
	return nil
}

// onlineMixed runs an in-process harmonyd driven closed-loop by two
// client goroutines, one on a JSON connection and one on a binary
// Mux. Each keeps a set of live sessions mixing the sequential,
// parallel and async dispatch modes with the simplex, PRO and random
// strategies over a cheap deterministic objective; a converged
// session is ended and replaced by a new registration, so session-
// table writes run alongside fetch/report reads. The seed fixes every
// session's strategy seed and objective.
func onlineMixed(e *env) (float64, error) {
	sz := onlineSize{live: 6, rounds: 8000, maxRuns: 60}
	if e.tiny {
		sz = onlineSize{live: 3, rounds: 100, maxRuns: 12}
	}
	srv := server.New()
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close() // end of the run: nothing is left to report to
		<-serveErr      // wait for Serve to return
	}()
	addr := ln.Addr().String()

	jc, err := client.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer jc.Close()
	mux, err := client.DialMux(addr)
	if err != nil {
		return 0, err
	}
	defer mux.Close()

	sp := onlineSpace()
	clients := []*onlineClient{
		{proto: "json", register: func(r client.Registration) (onlineSession, error) { return jc.Register(r) }},
		{proto: "binary", register: func(r client.Registration) (onlineSession, error) { return mux.Register(r) }},
	}
	for ci, c := range clients {
		c.e, c.sp, c.maxRuns, c.index = e, sp, sz.maxRuns, ci
		if err := c.start(sz.live); err != nil {
			return 0, err
		}
	}

	e.markSetup()
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *onlineClient) {
			defer wg.Done()
			errs[i] = c.run(sz.rounds)
		}(i, c)
	}
	wg.Wait()
	e.markDone()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}

	var results []sessionResult
	for _, c := range clients {
		results = append(results, c.results...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].spec.index < results[j].spec.index })
	var improvement float64
	for _, r := range results {
		e.fingerprint(r.spec.index, r.rounds, r.first, r.best)
		improvement += 100 * (r.first - r.best) / r.first
	}
	if e.tr != nil {
		if err := onlineLayers(e, srv, sp, sz, clients, results); err != nil {
			return 0, err
		}
	}
	return improvement / float64(len(results)), nil
}

// onlineLayers fills the traced run's per-layer values of the online
// workload.
func onlineLayers(e *env, srv *server.Server, sp *space.Space, sz onlineSize, clients []*onlineClient, results []sessionResult) error {
	l, tr := e.layer, e.tr
	st := srv.Stats()
	l["server.fetches"] = float64(st.Fetches)
	l["server.reports_stale"] = float64(st.ReportsDroppedStale)
	l["server.rounds_completed"] = float64(st.RoundsCompleted)
	l["server.reissued"] = float64(st.ProposalsReissued)
	for _, p := range protocols {
		l["client.fetch_us_p50."+p] = median(tr.samples["client.fetch_us."+p])
		l["client.fetch_us_p99."+p] = quantile(tr.samples["client.fetch_us."+p], 0.99)
		l["client.report_us_p50."+p] = median(tr.samples["client.report_us."+p])
		l["client.register_us_p50."+p] = median(tr.samples["client.register_us."+p])
	}

	var replayS float64
	var next, report []float64
	for _, r := range results {
		id := tr.begin("search.replay", r.spec.index, -1)
		rs, err := replay(r.spec.strategyFor(sp, sz.maxRuns), r.spec.mode, r.log)
		tr.end(id)
		e.check(err == nil, "session %d (%s, mode %d): replay: %v", r.spec.index, r.spec.strategy, r.spec.mode, err)
		replayS += rs.elapsed.Seconds()
		next = append(next, rs.nextUS...)
		report = append(report, rs.reportUS...)
	}
	l["search.replay_s"] = replayS
	l["search.next_us_p50"] = median(next)
	l["search.report_us_p50"] = median(report)

	var samples []sampleRound
	for _, c := range clients {
		samples = append(samples, c.samples...)
	}
	msgs := codecMessages(sp, sz.maxRuns, samples)
	jsonEnc, jsonDec, err := timeJSONCodec(msgs)
	if err != nil {
		return err
	}
	binEnc, binDec, err := timeBinaryCodec(msgs)
	if err != nil {
		return err
	}
	l["proto.encode_ns.json"], l["proto.decode_ns.json"] = jsonEnc, jsonDec
	l["proto.encode_ns.binary"], l["proto.decode_ns.binary"] = binEnc, binDec
	return nil
}

// codecMessages rebuilds the workload's own messages from sampled
// rounds: a registration, and per round the fetch, the config reply,
// the report and its acknowledgement.
func codecMessages(sp *space.Space, maxRuns int, rounds []sampleRound) []*proto.Message {
	msgs := []*proto.Message{{Type: proto.TypeRegister, App: "online-mixed", Space: proto.EncodeSpace(sp), MaxRuns: maxRuns, Seed: 1}}
	for i, r := range rounds {
		msgs = append(msgs,
			&proto.Message{Type: proto.TypeFetch, Session: r.session, Seq: uint64(4 * i)},
			&proto.Message{Type: proto.TypeConfig, Session: r.session, Values: r.values, Gen: i + 1, Seq: uint64(4 * i)},
			&proto.Message{Type: proto.TypeReport, Session: r.session, Perf: r.perf, Gen: i + 1, Seq: uint64(4*i + 1)},
			&proto.Message{Type: proto.TypeOK, Session: r.session, Seq: uint64(4*i + 1)},
		)
	}
	return msgs
}

// codecReps repeats the codec timing so each figure covers enough
// work to rise above the clock's resolution.
const codecReps = 20

// bufConn is an in-memory transport for timing the JSON line codec.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error { return nil }

// timeJSONCodec returns the mean nanoseconds to encode and to decode
// one message with the JSON line protocol.
func timeJSONCodec(msgs []*proto.Message) (enc, dec float64, err error) {
	var encNS, decNS int64
	for r := 0; r < codecReps; r++ {
		var buf bufConn
		conn := proto.NewConn(&buf)
		t0 := time.Now()
		for _, m := range msgs {
			if err := conn.Send(m); err != nil {
				return 0, 0, err
			}
		}
		encNS += int64(time.Since(t0))
		t1 := time.Now()
		for range msgs {
			if _, err := conn.Recv(); err != nil {
				return 0, 0, err
			}
		}
		decNS += int64(time.Since(t1))
	}
	n := float64(codecReps * len(msgs))
	return float64(encNS) / n, float64(decNS) / n, nil
}

// timeBinaryCodec returns the mean nanoseconds to encode and to
// decode one message as a single-message binary frame.
func timeBinaryCodec(msgs []*proto.Message) (enc, dec float64, err error) {
	var encNS, decNS int64
	var buf []byte
	for r := 0; r < codecReps; r++ {
		buf = buf[:0]
		t0 := time.Now()
		for i, m := range msgs {
			if buf, err = proto.AppendFrame(buf, &proto.Frame{ID: uint64(i), Msgs: []*proto.Message{m}}); err != nil {
				return 0, 0, err
			}
		}
		encNS += int64(time.Since(t0))
		br := bufio.NewReader(bytes.NewReader(buf))
		t1 := time.Now()
		for range msgs {
			if _, err := proto.ReadFrame(br); err != nil {
				return 0, 0, err
			}
		}
		decNS += int64(time.Since(t1))
	}
	n := float64(codecReps * len(msgs))
	return float64(encNS) / n, float64(decNS) / n, nil
}
