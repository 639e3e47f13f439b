package server

import (
	"math"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/proto"
	"harmony/internal/search"
)

// TestExpiryLogNotUnderShardLock is the regression test for the
// lockorder finding in the expiry paths: Logf is an injected callback
// that may block or re-enter the server, so both the lazy per-shard
// sweep (expireDue) and the eager walk (ExpireNow → expireOne) must
// release the shard mutex before logging a lease expiry. The callback
// itself probes every shard lock — if the expiring goroutine still
// held one, TryLock would fail.
func TestExpiryLogNotUnderShardLock(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.Shards = 1 // one shard: any dispatch sweeps the expired session
	s.SessionTimeout = time.Minute
	logged := 0
	s.Logf = func(format string, args ...any) {
		if !strings.Contains(format, "lease expired") {
			return
		}
		logged++
		for i, sh := range s.shardTable() {
			if !sh.mu.TryLock() {
				t.Errorf("shard %d mutex held during the Logf callback", i)
				continue
			}
			sh.mu.Unlock()
		}
	}
	reg := func(seed int64) *proto.Message {
		return &proto.Message{
			Strategy: proto.StrategyRandom, Seed: seed, MaxRuns: 10,
			Space: proto.EncodeSpace(testSpace()),
		}
	}
	mustRegister(t, s, reg(7))

	// Lazy path: the next message on the shard pops the lease entry.
	clk.Advance(2 * time.Minute)
	second := mustRegister(t, s, reg(8))
	if logged != 1 {
		t.Fatalf("lazy expiry logged %d lease lines, want 1", logged)
	}

	// Eager path: ExpireNow walks every shard and logs per collection.
	clk.Advance(2 * time.Minute)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d, want 1 (session %s)", n, second)
	}
	if logged != 2 {
		t.Fatalf("eager expiry logged %d lease lines in total, want 2", logged)
	}
}

// TestFanoutRoundPredictionSeparation is the regression test for the
// prunepurity findings in the fan-out: a window entry keeps the
// surrogate prediction for a pruned candidate in pred, never in worst,
// and the two only meet in deliveryValue, at the strategy boundary.
func TestFanoutRoundPredictionSeparation(t *testing.T) {
	round := []*entry{
		{worst: 7, count: 1, complete: true},
		{worst: math.Inf(-1), pred: 42, pruned: true, complete: true},
		{worst: 9, count: 1, complete: true},
	}
	want := []float64{7, 42, 9}
	for i, e := range round {
		if v := e.deliveryValue(); v != want[i] {
			t.Errorf("deliveryValue[%d] = %v, want %v", i, v, want[i])
		}
	}
	if !math.IsInf(round[1].worst, -1) {
		t.Errorf("worst[1] = %v, want -Inf: the prediction must never enter the measured field", round[1].worst)
	}

	// The window's own settle path keeps the fields apart too: a Parallel
	// round pruned by a model leaves every pruned entry's worst at its
	// sentinel and delivers the prediction only through deliveryValue.
	sp := testSpace()
	ss := newSession("s1", &proto.Message{Parallel: true}, sp, search.NewPRO(sp, search.PROOptions{Seed: 5}), 0)
	ss.surGate = core.NewSurrogateGate(&core.SurrogateOptions{Model: bowlModel(1), Keep: 0.25})
	ss.fillLocked()
	pruned := 0
	for _, e := range ss.window {
		if !e.pruned {
			continue
		}
		pruned++
		if !math.IsInf(e.worst, -1) {
			t.Errorf("pruned entry worst = %v, want -Inf", e.worst)
		}
		if e.deliveryValue() != e.pred {
			t.Errorf("pruned entry delivers %v, want its prediction %v", e.deliveryValue(), e.pred)
		}
	}
	if pruned == 0 {
		t.Fatal("the round pruned nothing; the separation went unexercised")
	}
}
