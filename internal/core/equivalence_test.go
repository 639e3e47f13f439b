package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/space"
)

// equivCase is one seeded campaign of the engine-equivalence property:
// a bowl whose centre, failing points, budgets and stop threshold all
// derive from the seed.
type equivCase struct {
	seed int64
	sp   *space.Space
	obj  Objective
	opt  Options
}

func newEquivCase(seed int64) equivCase {
	sp := space.MustNew(
		space.IntParam("x", 0, 40, 1),
		space.IntParam("y", 0, 40, 1),
		space.IntParam("z", 0, 40, 1),
	)
	cx, cy, cz := 5+seed*7%31, 3+seed*11%33, 2+seed*13%35
	boom := errors.New("configuration crashed")
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		x, y, z := cfg.Int("x"), cfg.Int("y"), cfg.Int("z")
		// A point-dependent delay makes evaluations complete out of
		// issue order when several run at once.
		time.Sleep(time.Duration((x*7+y*3+z)%4) * 20 * time.Microsecond)
		if seed%2 == 1 && (x+y+z)%13 == seed%13 {
			return 0, boom
		}
		dx, dy, dz := float64(x-cx), float64(y-cy), float64(z-cz)
		return dx*dx + 2*dy*dy + 0.5*dz*dz + 1, nil
	}
	opt := Options{MaxRuns: 25 + int(seed%4)*10, RunOverhead: float64(seed % 3)}
	if seed%5 == 0 {
		opt.StopBelow = 40
	}
	return equivCase{seed: seed, sp: sp, obj: obj, opt: opt}
}

// strategies returns the strategy constructors the property covers.
func (c equivCase) strategies() map[string]func() search.Strategy {
	sp, seed := c.sp, c.seed
	return map[string]func() search.Strategy{
		"simplex": func() search.Strategy {
			return search.NewSimplex(sp, search.SimplexOptions{
				Start: space.Point{seed % 41, seed * 3 % 41, seed * 5 % 41}, Restarts: 2})
		},
		"pro":        func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: seed}) },
		"random":     func() search.Strategy { return search.NewRandom(sp, seed, 60) },
		"systematic": func() search.Strategy { return search.NewSystematic(sp, 40+int(seed%3)*10) },
	}
}

// model is a deliberately imperfect surrogate: it misranks points by
// up to 40% and declines a seed-dependent sliver of the space, so
// both the pruning and the fallback paths run.
func (c equivCase) model() *SurrogateOptions {
	m := modelFunc(func(pt space.Point, cfg space.Config) (float64, bool) {
		if (pt[0]*pt[1]+pt[2])%23 == c.seed%23 {
			return 0, false
		}
		dx, dy, dz := float64(pt[0]-20), float64(pt[1]-20), float64(pt[2]-20)
		wobble := 1 + 0.4*math.Sin(float64(pt[0]*31+pt[1]*17+pt[2]))
		return (dx*dx + dy*dy + dz*dz + 1) * wobble, true
	})
	return &SurrogateOptions{Model: m, Keep: 0.5}
}

// campaignLog renders everything the property pins: each trial's
// point, exact value bits, run number, and cached/pruned/failed
// flags, and the accounting derived from them.
func campaignLog(r *Result) string {
	s := fmt.Sprintf("runs=%d proposals=%d failures=%d best=%v@%d value=%x cost=%x converged=%v cache=%d/%d surrogate=%d/%d/%d\n",
		r.Runs, r.Proposals, r.Failures, r.Best, r.BestAtRun, math.Float64bits(r.BestValue),
		math.Float64bits(r.TuningCost), r.Converged, r.CacheHits, r.CacheMisses,
		r.SurrogateKept, r.SurrogatePruned, r.SurrogateFallbacks)
	for _, t := range r.Trials {
		s += fmt.Sprintf("%d %v %x run=%d cached=%v pruned=%v failed=%v\n",
			t.Proposal, t.Point, math.Float64bits(t.Value), t.Run, t.Cached, t.Pruned, t.Err != nil)
	}
	return s
}

// sequentialLoop is the reference the property compares the engine
// against: the paper's off-line loop written out plainly, one Next,
// one run, one Report at a time, with memoised duplicates, the run
// and proposal budgets, the evaluation cache and StopBelow.
func sequentialLoop(sp *space.Space, strat search.Strategy, obj Objective, opt Options) *Result {
	applyProposalDefault(&opt)
	res := &Result{Strategy: strat.Name(), BestValue: math.Inf(1), FirstValue: math.NaN()}
	memo := make(map[string]Trial)
	for res.Proposals < opt.MaxProposals {
		pt, ok := strat.Next()
		if !ok {
			res.Converged = true
			break
		}
		res.Proposals++
		cfg, err := sp.Decode(pt)
		if err != nil {
			panic(err)
		}
		trial := Trial{Proposal: res.Proposals, Point: pt.Clone(), Config: cfg}
		if m, ok := memo[pt.Key()]; ok {
			trial.Cached, trial.Value, trial.Err = true, m.Value, m.Err
		} else {
			if opt.MaxRuns > 0 && res.Runs >= opt.MaxRuns {
				break
			}
			res.Runs++
			trial.Run = res.Runs
			v, hit := lookupCache(opt, pt)
			if hit {
				res.CacheHits++
			} else {
				if opt.Cache != nil {
					res.CacheMisses++
				}
				v, err = obj(context.Background(), cfg)
			}
			if err != nil {
				res.Failures++
				v, trial.Err = math.Inf(1), err
				res.TuningCost += opt.RunOverhead
			} else {
				res.TuningCost += v + opt.RunOverhead
				if opt.Cache != nil && !hit {
					opt.Cache.Store(pt, v)
				}
			}
			trial.Value = v
			memo[pt.Key()] = trial
			if math.IsNaN(res.FirstValue) {
				res.FirstValue = v
			}
			if v < res.BestValue {
				res.Best, res.BestConfig, res.BestValue, res.BestAtRun = pt.Clone(), cfg, v, res.Runs
			}
		}
		res.Trials = append(res.Trials, trial)
		strat.Report(pt, trial.Value)
		if opt.StopBelow != 0 && res.BestValue <= opt.StopBelow {
			break
		}
	}
	return res
}

// TestEngineModesEquivalentAcrossSeeds is the multi-seed property
// behind the single engine. For 20 seeds and the simplex, PRO, random
// and systematic strategies, every combination of Async off/on and
// 1, 4 or 8 workers must reproduce the trial log and accounting of
// sequentialLoop exactly; half the seeds also carry a cold evaluation
// cache. With a surrogate, whose keep quota is per round in
// barrier mode and per candidate in Async mode, the log must instead
// be identical across worker counts within each mode.
func TestEngineModesEquivalentAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := newEquivCase(seed)
		for name, mk := range c.strategies() {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				t.Parallel()
				withCache := func(opt Options) Options {
					if seed%2 == 0 {
						opt.Cache = history.NewEvalCache().Bound("equiv", "m", c.sp)
					}
					return opt
				}
				run := func(opt Options) string {
					t.Helper()
					res, err := Tune(context.Background(), c.sp, mk(), c.obj, withCache(opt))
					if err != nil {
						t.Fatalf("async=%v workers=%d: %v", opt.Async, opt.Workers, err)
					}
					return campaignLog(res)
				}
				want := campaignLog(sequentialLoop(c.sp, mk(), c.obj, withCache(c.opt)))
				for _, async := range []bool{false, true} {
					var surWant string
					for _, workers := range []int{1, 4, 8} {
						opt := c.opt
						opt.Async, opt.Workers = async, workers
						if got := run(opt); got != want {
							t.Fatalf("async=%v workers=%d diverged from the sequential loop:\n got %s\nwant %s",
								async, workers, got, want)
						}
						opt.Surrogate = c.model()
						got := run(opt)
						if workers == 1 {
							surWant = got
						} else if got != surWant {
							t.Fatalf("surrogate async=%v: workers=%d diverged from workers=1:\n got %s\nwant %s",
								async, workers, got, surWant)
						}
					}
				}
			})
		}
	}
}
