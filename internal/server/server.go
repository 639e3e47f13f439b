// Package server implements the Active Harmony tuning server: the
// Adaptation Controller behind the on-line tuning protocol.
//
// Applications register a parameter space, then fetch configurations
// and report measured performance while they run. Every session runs
// one dispatch state machine, a window of candidates drawn from its
// strategy (see window.go); the registration only chooses the
// window's shape:
//
//   - By default a session is shared by several clients (for example
//     one per node of a parallel job): a window of one, whose
//     configuration every client receives under the same generation.
//     The search advances only when all expected reports have arrived,
//     aggregated by taking the worst (a parallel application moves at
//     the speed of its slowest rank).
//   - A session registered with Parallel fans the independent
//     proposals of one search round — the whole PRO trial population, a
//     stride of a sampler's stream — out to concurrent clients: the
//     window holds the round, each fetch receives its own tagged
//     configuration, and the search advances when the whole round is
//     reported, which is how the paper's PRO algorithm exploits many
//     tuning clients at once.
//   - A session registered with Async pipelines: the window holds up to
//     AsyncDepth candidates handed out under their own tags, and a
//     completed candidate commits as soon as every earlier one has, so
//     a fast client is never parked behind a round barrier.
//
// In every shape a configuration needs Reporters reports, and the
// slowest of them counts.
//
// # Fault model
//
// The server assumes clients can crash, hang, or report late at any
// point, and degrades the search rather than wedging it:
//
//   - Every shared configuration carries a generation (proto.Gen) and
//     every distinct hand-out a tag; a report for a retired
//     generation or tag is acknowledged and dropped, never credited
//     to the wrong measurement.
//   - Sessions are leased: when SessionTimeout is set, a session
//     nobody has touched within the timeout is garbage-collected.
//   - Outstanding work has a straggler deadline: when ReportTimeout
//     is set, an overdue proposal is re-issued to the next fetch (up
//     to MaxReissues times) and then forfeited with a +Inf penalty so
//     the window always drains.
//
// Deadlines are evaluated lazily against the injected Clock whenever
// a message for the session arrives (or eagerly via ExpireNow), so
// the server needs no background goroutines and tests can drive time
// deterministically.
package server

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// defaultMaxReissues is how many times an overdue proposal is
// re-issued before it is forfeited with a penalty value.
const defaultMaxReissues = 3

// penaltyValue is reported to the strategy for a proposal that was
// forfeited without receiving any measurement. +Inf never displaces
// the incumbent best and ranks the point worse than every genuine
// evaluation, so the search advances without being biased toward the
// unmeasured configuration.
var penaltyValue = math.Inf(1)

// Server is a Harmony tuning server. Create with New, start with
// Serve or ListenAndServe. The exported configuration fields must be
// set before the server starts serving.
type Server struct {
	// Logf receives diagnostic output; defaults to log.Printf. Set to
	// a no-op to silence.
	Logf func(format string, args ...any)

	// Clock supplies the wall clock used for leases and straggler
	// deadlines; defaults to time.Now. Tests inject a fake clock.
	Clock func() time.Time

	// SessionTimeout is the lease on an idle session: a session no
	// client has fetched, reported, or queried within this window is
	// garbage-collected. 0 disables expiry.
	SessionTimeout time.Duration

	// ReportTimeout bounds how long the server waits for outstanding
	// reports before treating their clients as stragglers: an overdue
	// shared configuration or parallel proposal is re-issued, and
	// forfeited with a penalty after MaxReissues expiries. Set it
	// above the longest expected evaluation; a slow-but-alive client
	// keeps its configuration (and generation) across re-issues, so
	// its report still lands. 0 disables the deadline.
	ReportTimeout time.Duration

	// MaxReissues is how many straggler expiries a proposal survives
	// before it is forfeited. <= 0 selects the default (3).
	MaxReissues int

	// Cache, if non-nil, answers proposals from the persistent
	// evaluation cache: a session whose (app, machine, space)
	// identity matches a prior measurement receives the cached value
	// through the strategy without the configuration ever being
	// handed to a client. Cached proposals still count against the
	// session's MaxRuns — the run-cost accounting is identical for
	// every cache state. Completed full-report measurements are
	// stored back; forfeits and failures never are.
	Cache *history.EvalCache

	// Surrogate resolves an application name to an analytic performance
	// model, for sessions that register with proto.Message.Surrogate.
	// When it returns a model, the session's fetch path screens every
	// proposal with core.SurrogateGate — the exact pruning rules of the
	// off-line engine — and answers the search at the predicted value
	// for configurations the model ranks confidently worse, without
	// handing them to any client. Best replies always come from genuine
	// measurements (the session shadows its measured best). Nil, or a
	// resolver returning nil for the app, ignores the flag.
	Surrogate func(app string) core.Surrogate

	// SurrogateKeep is the default fraction of proposals a surrogate
	// session actually evaluates when the registration does not choose
	// one; 0 selects core.DefaultSurrogateKeep.
	SurrogateKeep float64

	// AsyncDepth is the default pipeline window of sessions that
	// register with proto.Message.Async without choosing a depth of
	// their own: how many candidates may be in flight at once before
	// the oldest must commit. <= 0 selects core.DefaultAsyncDepth.
	AsyncDepth int

	// Shards is the number of independent session shards (see
	// shard.go). Each session lives on exactly one shard, selected by
	// hashing its id, and every protocol message locks only that
	// shard — no cross-shard locks exist on the dispatch path. Set
	// before serving; <= 0 selects DefaultShards.
	Shards int

	stats      counters
	shardsOnce sync.Once
	shards     []*shard
	nextID     atomic.Int64

	mu     sync.Mutex // guards ln, closed, conns — never session state
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

type session struct {
	mu    sync.Mutex
	id    string
	num   int64 // numeric part of id: deadline-queue tie-break
	app   string
	space *space.Space

	// strategy is the session's only handle on its search strategy.
	// Strategies are engine-locked and carry no locking of their own:
	// every call is made under mu.
	strategy search.AsyncStrategy

	// Fault-tolerance plumbing, copied from the server at register
	// time. clock nil means time.Now; stats nil (sessions built
	// directly in tests) is allocated lazily by stat().
	clock         func() time.Time
	reportTimeout time.Duration
	maxReissues   int
	stats         *counters
	lastActive    time.Time // lease bookkeeping, guarded by mu

	reporters int // reports needed before an entry completes
	converged bool
	exhausted bool // run budget spent: the window drains, no new issues
	runs      int
	maxRuns   int

	// The window's shape, fixed at registration (see window.go).
	depth  int  // entries the window may hold; 0: one whole round
	shared bool // every fetch gets the head entry under its generation
	async  bool // candidates are asked and committed one at a time

	// The window itself. window holds the issued, uncommitted entries
	// in issue order; tags maps each live hand-out — a distinct tag, or
	// a shared entry's generation — to its entry and deadline base.
	// nextTag numbers the hand-outs.
	window  []*entry
	tags    map[int]*handout
	nextTag int

	// cache is the session's view of the server's evaluation cache,
	// bound to (app, machine, namespace, space) at register time; nil
	// when the server has no cache.
	cache *history.BoundCache

	// Surrogate screening state (nil gate disables the layer). Pruned
	// proposals are answered to the strategy at the model's predicted
	// value and never charged to runs, so the strategy's own best may
	// hold a prediction; measuredPt/measuredVal shadow the best
	// genuinely measured configuration, and best replies use the
	// shadow. surPrunes caps how many proposals a per-candidate session
	// may prune (an adversarial model must not spin fetch forever).
	surGate     *core.SurrogateGate
	surPrunes   int
	measuredPt  space.Point
	measuredVal float64
	measuredOK  bool

	// stragglerArmed records whether a straggler deadline entry for
	// this session is queued on its shard. Guarded by the owning
	// shard's mutex, NOT ss.mu (it belongs to the shard's deadline
	// queue, which session methods never touch).
	stragglerArmed bool
}

// newSession builds a session for a registration: id and space are
// the session's, strat is the strategy built for it, and asyncDepth is
// the server's default window depth for Async sessions that choose
// none. Async wins when both dispatch modes are requested: the
// pipelined window subsumes round fan-out.
func newSession(id string, msg *proto.Message, sp *space.Space, strat search.Strategy, asyncDepth int) *session {
	ss := &session{
		id: id, app: msg.App, space: sp,
		reporters: max(msg.Reporters, 1), maxRuns: msg.MaxRuns,
		tags: make(map[int]*handout),
	}
	switch {
	case msg.Async:
		ss.async = true
		ss.strategy = search.AsAsync(strat)
		ss.depth = msg.AsyncDepth
		if ss.depth <= 0 {
			ss.depth = asyncDepth
		}
		if ss.depth <= 0 {
			ss.depth = core.DefaultAsyncDepth
		}
	case msg.Parallel:
		ss.strategy = search.AsAsync(&roundFeed{Strategy: strat, batch: search.AsBatch(strat), ss: ss})
	default:
		ss.depth, ss.shared = 1, true
		ss.strategy = search.AsAsync(&roundFeed{Strategy: strat, ss: ss})
	}
	return ss
}

// New constructs a server with no sessions.
func New() *Server {
	return &Server{
		Logf:  log.Printf,
		Clock: time.Now,
		conns: make(map[net.Conn]struct{}),
	}
}

func (s *Server) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// ListenAndServe listens on addr (for example "127.0.0.1:0") and
// serves until Close. It returns the error from Accept after Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. Calling Serve on a
// server that is already closed (or that is closed concurrently
// during startup) returns nil after closing the listener: shutdown
// races resolve cleanly.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// The listener was never served; nothing acts on its close
		// error during a shutdown race.
		_ = ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Addr returns the listener address, useful with ":0".
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes all live connections, and waits for
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	//harmonyvet:ignore maporder connection teardown is order-independent: closing live conns in any order only unblocks their handlers, and the reported error is the listener's
	for c := range s.conns {
		_ = c.Close() // best-effort teardown; the listener close error is the one reported
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		// The peer may already have hung up; the handler exits either way.
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Sniff the protocol: JSON line messages open with '{', the
	// binary frame protocol opens with its handshake magic. One port
	// serves both.
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		if err != io.EOF {
			s.Logf("harmony server: peek: %v", err)
		}
		return
	}
	if first[0] == proto.BinMagic[0] {
		s.handleBinary(conn, br)
		return
	}
	pc := proto.NewConnReader(conn, br)
	for {
		msg, err := pc.Recv()
		if err != nil {
			if err != io.EOF {
				s.Logf("harmony server: recv: %v", err)
			}
			return
		}
		reply := s.dispatch(msg)
		if err := pc.Send(reply); err != nil {
			s.Logf("harmony server: send: %v", err)
			return
		}
	}
}

func errorReply(format string, args ...any) *proto.Message {
	return &proto.Message{Type: proto.TypeError, Error: fmt.Sprintf(format, args...)}
}

func (s *Server) dispatch(msg *proto.Message) *proto.Message {
	switch msg.Type {
	case proto.TypeRegister:
		return s.register(msg)
	case proto.TypeFetch:
		return s.withSession(msg, (*session).fetch)
	case proto.TypeReport:
		return s.withSession(msg, func(ss *session, m *proto.Message) *proto.Message {
			return ss.report(m)
		})
	case proto.TypeBest:
		return s.withSession(msg, (*session).best)
	case proto.TypeDone:
		return s.done(msg)
	default:
		return errorReply("unknown message type %q", msg.Type)
	}
}

// sortedSessionIDs returns the ids of the session table in
// registration order ("s9" before "s10"), so sweeps and expiry logs
// visit sessions deterministically rather than in map order. The
// caller holds s.mu.
func sortedSessionIDs(sessions map[string]*session) []string {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, aerr := strconv.Atoi(strings.TrimPrefix(ids[i], "s"))
		b, berr := strconv.Atoi(strings.TrimPrefix(ids[j], "s"))
		if aerr == nil && berr == nil && a != b {
			return a < b
		}
		return ids[i] < ids[j]
	})
	return ids
}

// ExpireNow applies lease and straggler deadlines immediately across
// every shard and returns the number of sessions garbage-collected.
// Deadlines are otherwise applied incrementally per shard when a
// message arrives (see expireDue); operators with long quiet periods
// (harmonyd's stats ticker) and tests call this to make abandoned
// sessions and rounds progress without client traffic. The sweep
// visits sessions in registration order across all shards, so expiry
// logs and counters stay reproducible.
func (s *Server) ExpireNow() int {
	now := s.now()
	shards := s.shardTable()
	all := make(map[string]*session)
	for _, sh := range shards {
		sh.mu.Lock()
		for id, ss := range sh.sessions {
			all[id] = ss
		}
		sh.mu.Unlock()
	}
	n := 0
	for _, id := range sortedSessionIDs(all) {
		if s.expireOne(all[id], now) {
			n++
		}
	}
	return n
}

// expireOne applies lease then straggler deadlines to one session,
// returning whether it was garbage-collected. Takes the session's
// shard lock, so concurrent dispatches stay correct. The expiry log
// line is emitted only after the shard lock is released: Logf is an
// injected callback that may block or re-enter the server, so
// lockorder forbids calling it under a shard lock.
func (s *Server) expireOne(ss *session, now time.Time) bool {
	sh := s.shardFor(ss.id)
	expired, idle := s.expireOneShard(sh, ss, now)
	if expired {
		s.Logf("harmony server: session %s lease expired after %v idle", ss.id, idle)
	}
	return expired
}

// expireOneShard is expireOne's locked region: it reports whether the
// session's lease expired and, if so, for how long it had been idle,
// leaving the logging to the caller.
func (s *Server) expireOneShard(sh *shard, ss *session, now time.Time) (bool, time.Duration) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.sessions[ss.id]; !ok {
		return false, 0 // collected since the snapshot
	}
	if s.SessionTimeout > 0 {
		ss.mu.Lock()
		last := ss.effectiveLastActiveLocked(now)
		ss.mu.Unlock()
		if idle := now.Sub(last); idle > s.SessionTimeout {
			delete(sh.sessions, ss.id)
			s.stats.sessionsExpired.Add(1)
			return true, idle
		}
	}
	ss.mu.Lock()
	ss.expireLocked(now)
	ss.mu.Unlock()
	return false, 0
}

func (s *Server) register(msg *proto.Message) *proto.Message {
	sp, err := proto.DecodeSpace(msg.Space)
	if err != nil {
		return errorReply("register: %v", err)
	}
	strat, err := buildStrategy(msg, sp)
	if err != nil {
		return errorReply("register: %v", err)
	}
	num := s.nextID.Add(1)
	id := "s" + strconv.FormatInt(num, 10)
	now := s.now()
	ss := newSession(id, msg, sp, strat, s.AsyncDepth)
	ss.num = num
	ss.clock = s.now
	ss.reportTimeout = s.ReportTimeout
	ss.maxReissues = s.MaxReissues
	ss.stats = &s.stats
	ss.lastActive = now
	if s.Cache != nil {
		ss.cache = s.Cache.BoundNS(msg.App, msg.Machine, msg.CacheNS, sp)
	}
	if msg.Surrogate && s.Surrogate != nil {
		if model := s.Surrogate(msg.App); model != nil {
			keep := msg.SurrogateKeep
			if keep == 0 {
				keep = s.SurrogateKeep
			}
			ss.surGate = core.NewSurrogateGate(&core.SurrogateOptions{Model: model, Keep: keep})
		}
	}
	sh := s.shardFor(id)
	s.expireDue(sh, now)
	sh.mu.Lock()
	sh.sessions[id] = ss
	if s.SessionTimeout > 0 {
		heap.Push(&sh.dq, deadlineEntry{at: now.Add(s.SessionTimeout), num: num, id: id, kind: leaseEntry})
	}
	sh.mu.Unlock()
	s.Logf("harmony server: registered session %s app=%q strategy=%s dims=%d", id, msg.App, strat.Name(), sp.Dims())
	return &proto.Message{Type: proto.TypeRegistered, Session: id}
}

func buildStrategy(msg *proto.Message, sp *space.Space) (search.Strategy, error) {
	switch msg.Strategy {
	case "", proto.StrategySimplex:
		return search.NewSimplex(sp, search.SimplexOptions{}), nil
	case proto.StrategyCoordinate:
		return search.NewCoordinate(sp, search.CoordinateOptions{}), nil
	case proto.StrategyRandom:
		max := msg.MaxRuns
		if max == 0 {
			max = 100
		}
		return search.NewRandom(sp, msg.Seed, max), nil
	case proto.StrategySystematic:
		budget := msg.MaxRuns
		if budget == 0 {
			budget = 100
		}
		return search.NewSystematic(sp, budget), nil
	case proto.StrategyPRO:
		return search.NewPRO(sp, search.PROOptions{Seed: msg.Seed}), nil
	case proto.StrategyEnsemble:
		budget := msg.MaxRuns
		if budget == 0 {
			budget = search.DefaultEnsembleBudget
		}
		return search.NewEnsemble(sp, search.EnsembleOptions{Seed: msg.Seed, Budget: budget}), nil
	case proto.StrategyExhaustive:
		if sp.Size() > 1_000_000 {
			return nil, fmt.Errorf("space too large for exhaustive search (%d points)", sp.Size())
		}
		return search.NewExhaustive(sp), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", msg.Strategy)
	}
}

func (s *Server) withSession(msg *proto.Message, fn func(*session, *proto.Message) *proto.Message) *proto.Message {
	sh := s.shardFor(msg.Session)
	s.expireDue(sh, s.now())
	sh.mu.Lock()
	ss, ok := sh.sessions[msg.Session]
	sh.mu.Unlock()
	if !ok {
		return errorReply("unknown session %q", msg.Session)
	}
	reply := fn(ss, msg)
	// The message may have handed out new work: make sure a straggler
	// deadline is queued.
	s.armStraggler(sh, ss)
	return reply
}

func (s *Server) done(msg *proto.Message) *proto.Message {
	sh := s.shardFor(msg.Session)
	sh.mu.Lock()
	_, ok := sh.sessions[msg.Session]
	delete(sh.sessions, msg.Session)
	sh.mu.Unlock()
	if !ok {
		return errorReply("unknown session %q", msg.Session)
	}
	return &proto.Message{Type: proto.TypeOK}
}

func (ss *session) now() time.Time {
	if ss.clock != nil {
		return ss.clock()
	}
	return time.Now()
}

// stat returns the session's counter block, allocating a private one
// for sessions constructed directly (tests) without a server.
func (ss *session) stat() *counters {
	if ss.stats == nil {
		ss.stats = new(counters)
	}
	return ss.stats
}

func (ss *session) reissueLimit() int {
	if ss.maxReissues > 0 {
		return ss.maxReissues
	}
	return defaultMaxReissues
}

// noteMeasuredLocked shadows the best genuinely measured value of a
// surrogate or async session. With a surrogate, the strategy's own
// best may be a model prediction (pruned proposals are answered at
// their predicted value); in async mode a round-buffered strategy
// only learns values at full-round commits, so its best lags the
// measurements the session already holds. Best replies read this
// shadow instead. The point is copied: rounds and strategies may
// reuse their backing arrays.
func (ss *session) noteMeasuredLocked(pt space.Point, v float64) {
	if (ss.surGate == nil && !ss.async) || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if !ss.measuredOK || v < ss.measuredVal {
		ss.measuredPt = append(space.Point(nil), pt...)
		ss.measuredVal = v
		ss.measuredOK = true
	}
}

// pruneBudget caps how many proposals the surrogate may prune one at
// a time: a model that rejects everything the strategy proposes must
// degrade to evaluation, not spin the fetch loop until convergence.
func (ss *session) pruneBudget() int {
	if ss.maxRuns > 0 {
		return 10 * ss.maxRuns
	}
	return 10000
}

// bestOrCurrentLocked replies with the best-known configuration and
// the converged flag set, so clients can settle on the tuned values.
// Surrogate sessions settle on the best measured configuration: the
// strategy's best may be a point the model scored but nothing ever
// ran.
func (ss *session) bestOrCurrentLocked() *proto.Message {
	if (ss.surGate != nil || ss.async) && ss.measuredOK {
		if cfg, err := ss.space.Decode(ss.measuredPt); err == nil {
			return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Converged: true}
		}
	}
	if pt, _, ok := ss.strategy.Best(); ok {
		cfg, err := ss.space.Decode(pt)
		if err == nil {
			return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Converged: true}
		}
	}
	cfg, err := ss.space.Decode(ss.space.Center())
	if err != nil {
		return errorReply("fetch: %v", err)
	}
	return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Converged: true}
}

func (ss *session) best(*proto.Message) *proto.Message {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastActive = ss.now()
	var (
		pt    space.Point
		value float64
		ok    bool
	)
	switch {
	case ss.surGate != nil:
		// Surrogate sessions answer best queries only from genuine
		// measurements: the strategy's best may hold a model prediction.
		pt, value, ok = ss.measuredPt, ss.measuredVal, ss.measuredOK
	case ss.async && ss.measuredOK:
		// Async sessions prefer the measured shadow: a round-buffered
		// strategy only learns values at full-round commits, so its
		// best can lag measurements the session already holds.
		pt, value, ok = ss.measuredPt, ss.measuredVal, true
	default:
		pt, value, ok = ss.strategy.Best()
	}
	if !ok {
		return errorReply("best: session %s has no evaluations yet", ss.id)
	}
	cfg, err := ss.space.Decode(pt)
	if err != nil {
		return errorReply("best: %v", err)
	}
	return &proto.Message{
		Type: proto.TypeBestReply, Values: cfg.Map(), Perf: value,
		Converged: ss.converged,
	}
}
