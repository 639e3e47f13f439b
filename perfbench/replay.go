package main

import (
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/search"
	"harmony/internal/space"
)

// drive names the strategy interface a campaign's engine or server
// session used; a replay must drive the strategy the same way to see
// the same proposals.
type drive int

const (
	// driveNext is the sequential Next/Report alternation (Tune at one
	// worker, the server's shared sequential mode).
	driveNext drive = iota
	// driveBatch is NextBatch/ReportBatch rounds (TuneParallel, the
	// server's parallel fan-out).
	driveBatch
	// driveAsync is Ask until the strategy stalls, then Commit in
	// issue order (TuneAsync, the server's async window).
	driveAsync
)

// logged is one recorded proposal and the value its strategy was
// told.
type logged struct {
	pt    space.Point
	value float64
}

func trialLog(trials []core.Trial) []logged {
	out := make([]logged, len(trials))
	for i, t := range trials {
		out[i] = logged{pt: t.Point, value: t.Value}
	}
	return out
}

// replayStats is the cost of the search layer alone: a strategy
// driven through its proposals against recorded values, with no
// simulation and no engine.
type replayStats struct {
	elapsed  time.Duration
	nextUS   []float64
	reportUS []float64
}

// replay drives strat, freshly built with the campaign's constructor
// and seed, through the recorded log: every proposal must equal the
// logged point, and is answered with the logged value (a pruned
// trial's prediction, a failed run's +Inf), so the strategy sees
// exactly the values it saw live. The live strategy is never wrapped:
// the engines type-assert optional interfaces on it, and a wrapper
// would change their path. A log may end inside a round, where the
// budget cut the campaign short.
func replay(strat search.Strategy, how drive, log []logged) (rs replayStats, err error) {
	start := time.Now()
	defer func() { rs.elapsed = time.Since(start) }()
	// propose asks for the next group of proposals and reports them;
	// the three drives differ only in how.
	var propose func() []space.Point
	var report func(pts []space.Point, values []float64)
	switch how {
	case driveNext:
		propose = func() []space.Point {
			if pt, ok := strat.Next(); ok {
				return []space.Point{pt}
			}
			return nil
		}
		report = func(pts []space.Point, values []float64) { strat.Report(pts[0], values[0]) }
	case driveBatch:
		bs := search.AsBatch(strat)
		propose = bs.NextBatch
		report = bs.ReportBatch
	case driveAsync:
		as := search.AsAsync(strat)
		propose = func() []space.Point {
			var pts []space.Point
			for {
				pt, ok := as.Ask()
				if !ok {
					return pts
				}
				pts = append(pts, pt)
			}
		}
		report = func(pts []space.Point, values []float64) {
			for i, pt := range pts {
				as.Commit(pt, values[i])
			}
		}
	}
	for i := 0; i < len(log); {
		t0 := time.Now()
		pts := propose()
		rs.nextUS = append(rs.nextUS, usSince(t0)/float64(max(1, len(pts))))
		if len(pts) == 0 {
			return rs, fmt.Errorf("strategy stopped after %d of %d logged proposals", i, len(log))
		}
		values := make([]float64, len(pts))
		for j, pt := range pts {
			if i+j == len(log) {
				return rs, nil
			}
			if !pt.Equal(log[i+j].pt) {
				return rs, fmt.Errorf("proposal %d is %v, the log has %v", i+j+1, pt, log[i+j].pt)
			}
			values[j] = log[i+j].value
		}
		t1 := time.Now()
		report(pts, values)
		rs.reportUS = append(rs.reportUS, usSince(t1)/float64(len(pts)))
		i += len(pts)
	}
	return rs, nil
}

// driveOf returns how the core engines drive a campaign's strategy
// under the given options (the dispatch in core.Tune).
func driveOf(opt core.Options) drive {
	switch {
	case opt.Async:
		return driveAsync
	case opt.Workers > 1 || opt.Surrogate != nil && opt.Surrogate.Model != nil:
		return driveBatch
	}
	return driveNext
}
