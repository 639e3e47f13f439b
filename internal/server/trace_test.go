package server

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/history"
	"harmony/internal/proto"
)

// dispatchTraceGolden holds one hash per dispatch trace case. It was
// recorded once and must never be re-recorded to make a change pass:
// a mismatch means the server's observable behaviour moved.
const dispatchTraceGolden = "testdata/dispatch_trace.golden"

// traceCase is one scripted campaign driven through Server.dispatch.
type traceCase struct {
	mode      string // "seq", "parallel" or "async"
	strategy  string
	seed      int64
	reporters int
	warm      bool // the evaluation cache holds a prior campaign
	surrogate bool
}

func (c traceCase) name() string {
	cache, sur := "cold", "nosur"
	if c.warm {
		cache = "warm"
	}
	if c.surrogate {
		sur = "sur"
	}
	return fmt.Sprintf("%s/%s/seed%d/r%d/%s/%s", c.mode, c.strategy, c.seed, c.reporters, cache, sur)
}

func traceCases() []traceCase {
	var cases []traceCase
	for _, mode := range []string{"seq", "parallel", "async"} {
		for _, strat := range []string{proto.StrategySimplex, proto.StrategyPRO, proto.StrategyRandom, proto.StrategyEnsemble} {
			for seed := int64(1); seed <= 10; seed++ {
				for _, reporters := range []int{1, 2} {
					for _, warm := range []bool{false, true} {
						for _, sur := range []bool{false, true} {
							cases = append(cases, traceCase{mode, strat, seed, reporters, warm, sur})
						}
					}
				}
			}
		}
	}
	return cases
}

// registration builds the case's register message. Reporter-2 cases
// run without a budget; the shared hand-out of the last budgeted
// configuration to a second rank has its own regression test.
func (c traceCase) registration(seed int64, maxRuns int) *proto.Message {
	if c.reporters > 1 {
		maxRuns = 0
	}
	return &proto.Message{
		Type: proto.TypeRegister, App: "trace", Space: proto.EncodeSpace(testSpace()),
		Strategy: c.strategy, Seed: seed, MaxRuns: maxRuns, Reporters: c.reporters,
		Parallel: c.mode == "parallel", Async: c.mode == "async", AsyncDepth: 4,
		Surrogate: c.surrogate,
	}
}

// traceRecorder folds every dispatch reply into one hash.
type traceRecorder struct {
	h hash.Hash64
}

func (r *traceRecorder) note(format string, args ...any) {
	fmt.Fprintf(r.h, format, args...)
	r.h.Write([]byte{'\n'})
}

func (r *traceRecorder) reply(m *proto.Message) *proto.Message {
	keys := make([]string, 0, len(m.Values))
	for k := range m.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var vals strings.Builder
	for _, k := range keys {
		vals.WriteString(k + "=" + m.Values[k] + ",")
	}
	r.note("%s|%s|gen=%d|tag=%d|conv=%t|perf=%s|err=%s",
		m.Type, vals.String(), m.Gen, m.Tag, m.Converged,
		strconv.FormatFloat(m.Perf, 'g', -1, 64), m.Error)
	return m
}

// runTraceCase drives one case and returns its hash. The fault
// schedule draws from a seeded source and depends only on the
// replies, so it is identical for any implementation that answers
// identically: NaN, duplicate and stale reports in the first steps,
// silent clients whose configurations are re-issued and forfeited,
// periodic eager sweeps and best queries, and on every third seed a
// lease expiry at the end.
func runTraceCase(t *testing.T, c traceCase) uint64 {
	t.Helper()
	const (
		maxRuns     = 30
		faultSteps  = 12
		maxSteps    = 120
		reportAfter = 10 * time.Second
	)
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.Shards = 1
	s.ReportTimeout = reportAfter
	s.SessionTimeout = time.Minute
	s.MaxReissues = 2
	s.Cache = history.NewEvalCache()
	if c.surrogate {
		s.Surrogate = resolver(bowlModel(1.5))
	}
	rec := &traceRecorder{h: fnv.New64a()}
	call := func(m *proto.Message) *proto.Message { return rec.reply(s.dispatch(m)) }

	if c.warm {
		// A fault-free campaign of the same kind on a neighbouring seed
		// with a smaller budget leaves a partially overlapping cache.
		warm := c
		warm.reporters = 1
		reg := call(warm.registration(c.seed+100, 20))
		for i := 0; i < maxSteps; i++ {
			cfg := call(&proto.Message{Type: proto.TypeFetch, Session: reg.Session})
			if cfg.Type != proto.TypeConfig || cfg.Converged {
				break
			}
			call(&proto.Message{Type: proto.TypeReport, Session: reg.Session, Gen: cfg.Gen, Tag: cfg.Tag, Perf: objective(cfg.Values)})
		}
		call(&proto.Message{Type: proto.TypeDone, Session: reg.Session})
	}
	hitsBefore := s.Stats().CacheHits

	reg := call(c.registration(c.seed, maxRuns))
	id := reg.Session
	rng := rand.New(rand.NewSource(c.seed*7919 + int64(c.reporters)))
	prev := make([]*proto.Message, c.reporters)
	lastGen := 0
	report := func(cfg *proto.Message, perf float64) {
		call(&proto.Message{Type: proto.TypeReport, Session: id, Gen: cfg.Gen, Tag: cfg.Tag, Perf: perf})
	}
	for step := 0; step < maxSteps; step++ {
		cfgs := make([]*proto.Message, c.reporters)
		stop := false
		for r := range cfgs {
			cfgs[r] = call(&proto.Message{Type: proto.TypeFetch, Session: id})
			if cfgs[r].Type != proto.TypeConfig || cfgs[r].Converged {
				stop = true
			}
			if cfgs[r].Gen > lastGen {
				lastGen = cfgs[r].Gen
			}
		}
		if stop {
			break
		}
		silent := false
		for r, cfg := range cfgs {
			action := 9
			if step < faultSteps {
				action = rng.Intn(10)
			}
			if action >= 3 && action <= 4 && c.mode == "seq" && c.reporters == 1 {
				// A shared configuration at the last budgeted run is
				// re-served to a repeat fetch only since the window
				// rewrite; keep the schedule off that configuration.
				runs := lastGen + int(s.Stats().CacheHits-hitsBefore)
				if runs >= maxRuns {
					action = 9
				}
			}
			perf := objective(cfg.Values)
			switch action {
			case 0: // the client measured nothing usable
				report(cfg, math.NaN())
			case 1: // duplicate report
				report(cfg, perf)
				report(cfg, perf-1000)
			case 2: // a straggler reports the configuration it had before
				if prev[r] != nil {
					report(prev[r], -1e9)
				}
				report(cfg, perf)
			case 3, 4: // silent: the client hung
				silent = true
			default:
				report(cfg, perf)
			}
			prev[r] = cfg
		}
		if silent {
			clk.Advance(reportAfter + time.Second)
		} else {
			clk.Advance(time.Second)
		}
		if step%7 == 6 {
			rec.note("expired=%d", s.ExpireNow())
		}
		if step%5 == 4 {
			call(&proto.Message{Type: proto.TypeBest, Session: id})
		}
	}
	call(&proto.Message{Type: proto.TypeBest, Session: id})
	if c.seed%3 == 0 {
		clk.Advance(2 * time.Minute)
		rec.note("expired=%d", s.ExpireNow())
		call(&proto.Message{Type: proto.TypeFetch, Session: id})
	}
	rec.note("stats=%+v", s.Stats())
	return rec.h.Sum64()
}

// TestDispatchTraceGolden drives every dispatch mode, strategy, seed,
// reporter count, cache state and surrogate setting through a scripted
// fault schedule and requires each case's reply-and-counter hash to
// equal its recorded value.
func TestDispatchTraceGolden(t *testing.T) {
	f, err := os.Open(dispatchTraceGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := traceCases()
	if len(want) != len(cases) {
		t.Errorf("golden holds %d cases, the matrix has %d", len(want), len(cases))
	}
	for _, c := range cases {
		got := fmt.Sprintf("%016x", runTraceCase(t, c))
		if got != want[c.name()] {
			t.Errorf("%s: trace hash %s, golden %s", c.name(), got, want[c.name()])
		}
	}
}
