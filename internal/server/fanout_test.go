package server

import (
	"math"
	"sync"
	"testing"

	"harmony/internal/client"
	"harmony/internal/proto"
	"harmony/internal/search"
)

// TestParallelFanoutDistinctConfigs verifies a parallel session hands
// concurrent clients distinct proposals of one PRO round and advances
// the search once the whole round is reported.
func TestParallelFanoutDistinctConfigs(t *testing.T) {
	_, addr := startServer(t)

	lead, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lead.Close()
	sess, err := lead.Register(client.Registration{
		App: "fanout", Space: testSpace(),
		Strategy: proto.StrategyPRO, Seed: 7,
		MaxRuns: 60, Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const nClients = 4
	type worker struct {
		c *client.Client
		s *client.Session
	}
	workers := make([]worker, nClients)
	for i := range workers {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		workers[i] = worker{c: c, s: c.Attach(sess.ID())}
	}

	// First wave: the four clients fetch before any reports. With a
	// PRO population of at least 4, they must receive 4 distinct
	// tagged configurations of the same round.
	firstWave := make([]map[string]string, nClients)
	distinct := make(map[string]bool)
	for i, w := range workers {
		values, converged, err := w.s.Fetch()
		if err != nil {
			t.Fatalf("client %d fetch: %v", i, err)
		}
		if converged {
			t.Fatalf("client %d: converged before any report", i)
		}
		firstWave[i] = values
		distinct[values["x"]+","+values["y"]] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d concurrent fetches got the same configuration; fan-out is not distributing the round", nClients)
	}

	// Drive the session to completion with concurrent clients.
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := range workers {
		wg.Add(1)
		go func(w worker, pending map[string]string) {
			defer wg.Done()
			values := pending
			for step := 0; step < 200; step++ {
				if err := w.s.Report(objective(values)); err != nil {
					errs <- err
					return
				}
				var converged bool
				var err error
				values, converged, err = w.s.Fetch()
				if err != nil {
					errs <- err
					return
				}
				if converged {
					return
				}
			}
		}(workers[i], firstWave[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	values, perf, err := sess.Best()
	if err != nil {
		t.Fatal(err)
	}
	if perf >= objective(map[string]string{"x": "0", "y": "0"}) {
		t.Fatalf("best %v (%v) is no better than the corner; the fanned-out search went nowhere", values, perf)
	}
}

// TestParallelFanoutStaleReportsDropped verifies late and duplicate
// tagged reports are acknowledged without corrupting the round.
func TestParallelFanoutStaleReportsDropped(t *testing.T) {
	sp := testSpace()
	ss := newSession("s1", &proto.Message{Parallel: true, MaxRuns: 50}, sp, search.NewRandom(sp, 3, 50), 0)

	first := ss.fetch(nil)
	if first.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", first.Type)
	}
	// Report it once: accepted.
	if r := ss.report(&proto.Message{Tag: first.Tag, Perf: 5}); r.Type != proto.TypeOK {
		t.Fatalf("report reply %q", r.Type)
	}
	// The same tag again: dropped, still OK.
	if r := ss.report(&proto.Message{Tag: first.Tag, Perf: -1e9}); r.Type != proto.TypeOK {
		t.Fatalf("duplicate report reply %q", r.Type)
	}
	// An unknown tag: dropped, still OK.
	if r := ss.report(&proto.Message{Tag: 9999, Perf: -1e9}); r.Type != proto.TypeOK {
		t.Fatalf("stale report reply %q", r.Type)
	}
	// Finish the round with genuine values no better than 5, so the
	// round reaches the strategy and 5 should be the incumbent best.
	for i := 0; len(ss.window) > 0 && i < 100; i++ {
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch reply %q", reply.Type)
		}
		ss.report(&proto.Message{Tag: reply.Tag, Perf: 50})
	}
	if len(ss.window) > 0 {
		t.Fatal("round never completed")
	}
	// The bogus -1e9 reports must not have reached the strategy.
	if _, v, ok := ss.strategy.Best(); !ok || v != 5 {
		t.Fatalf("strategy best = %v (ok=%v), want the genuine report 5", v, ok)
	}
}

// TestParallelFanoutPRONearBudget pins the truncation behaviour at
// the maxRuns boundary: when the remaining budget is smaller than
// PRO's next trial population, the round is truncated to the budget,
// the truncated prefix is reported back (legal per the BatchStrategy
// contract), and the session converges with runs == maxRuns exactly —
// no error replies, no overspend, and Best reflecting every genuine
// measurement.
func TestParallelFanoutPRONearBudget(t *testing.T) {
	sp := testSpace() // dims=2, so PRO's population is 4
	strat := search.NewPRO(sp, search.PROOptions{Seed: 5})
	// Init round costs 4; the reflected round of 3 must be truncated
	// to the remaining budget of 2.
	ss := newSession("s1", &proto.Message{Parallel: true, MaxRuns: 6}, sp, strat, 0)

	reported := 0
	bestSeen := math.Inf(1)
	var converged *proto.Message
	for i := 0; i < 50; i++ {
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch %d: reply %+v, want config (no errors near the budget)", i, reply)
		}
		if reply.Converged {
			converged = reply
			break
		}
		v := objective(reply.Values)
		if v < bestSeen {
			bestSeen = v
		}
		reported++
		if r := ss.report(&proto.Message{Tag: reply.Tag, Perf: v}); r.Type != proto.TypeOK {
			t.Fatalf("report %d: %+v", i, r)
		}
	}
	if converged == nil {
		t.Fatal("session never converged")
	}
	if ss.runs != 6 {
		t.Fatalf("runs = %d, want exactly maxRuns (6): truncation must neither overspend nor undercount", ss.runs)
	}
	if reported != 6 {
		t.Fatalf("%d proposals evaluated, want 6", reported)
	}
	if _, v, ok := strat.Best(); !ok || v != bestSeen {
		t.Fatalf("strategy best = %v (ok=%v), want the best genuine measurement %v", v, ok, bestSeen)
	}
	if got := objective(converged.Values); got != bestSeen {
		t.Fatalf("converged config scores %v, want the best seen %v", got, bestSeen)
	}
}

// TestParallelFanoutHonoursMaxRuns verifies a parallel session never
// hands out more distinct proposals than max_runs.
func TestParallelFanoutHonoursMaxRuns(t *testing.T) {
	sp := testSpace()
	ss := newSession("s1", &proto.Message{Parallel: true, MaxRuns: 7}, sp, search.NewRandom(sp, 9, 500), 0)

	distinct := make(map[string]bool)
	for i := 0; i < 100; i++ {
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch %d: reply %q", i, reply.Type)
		}
		if reply.Converged {
			break
		}
		distinct[reply.Values["x"]+","+reply.Values["y"]] = true
		ss.report(&proto.Message{Tag: reply.Tag, Perf: float64(i)})
	}
	if ss.runs > 7 {
		t.Fatalf("session charged %d runs, max_runs is 7", ss.runs)
	}
	if len(distinct) > 7 {
		t.Fatalf("%d distinct configurations handed out, max_runs is 7", len(distinct))
	}
}
