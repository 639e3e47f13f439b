package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/history"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/search"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
	"harmony/internal/surrogate"
)

// campaign is one offline tuning campaign of a workload.
type campaign struct {
	name string
	sp   *space.Space
	// strategy builds the campaign's search strategy; the traced run
	// calls it again, with the same seed, to replay the search.
	strategy func() search.Strategy
	obj      core.Objective
	opt      core.Options
	// defaultRun evaluates the application's default configuration;
	// nil for a sample, which characterises the space rather than
	// tuning it and does not count towards the tuned improvement.
	defaultRun func() (float64, error)
	// stats returns the simulator statistics of the default and of
	// the tuned configuration; nil when the application exposes none.
	stats func(tuned space.Config) (def, best simmpi.Stats, err error)
	// plan times the application's public plan builder on one
	// evaluated configuration; nil when it has none.
	plan func(tr *tracer, cfg space.Config) error

	res *core.Result
	def float64
}

// jitter moves each coordinate of pt by up to width lattice levels,
// drawn from rng and clamped to the space: the seeded initial guess a
// user hands the tuner.
func jitter(sp *space.Space, pt space.Point, rng *rand.Rand, width int64) space.Point {
	out := pt.Clone()
	for i, p := range sp.Params() {
		v := out[i] + rng.Int63n(2*width+1) - width
		if v < 0 {
			v = 0
		}
		if max := p.Levels() - 1; v > max {
			v = max
		}
		out[i] = v
	}
	return out
}

// runOffline runs the campaigns as the timed part of a workload, then
// checks their outputs and, when traced, fills the per-layer values.
// It returns the mean tuned improvement over the campaigns, in
// percent of the default configuration's simulated time.
func runOffline(e *env, cs []*campaign) (float64, error) {
	ctx := context.Background()
	e.markSetup()
	for i, c := range cs {
		id := e.tr.begin("campaign", i, -1)
		opt := c.opt
		if e.tr != nil {
			if opt.Cache != nil {
				opt.Cache = &tracedCache{inner: opt.Cache, tr: e.tr, run: i, parent: id}
			}
			if opt.Surrogate != nil {
				s := *opt.Surrogate
				s.Model = &tracedSurrogate{inner: s.Model, tr: e.tr, run: i, parent: id}
				opt.Surrogate = &s
			}
		}
		res, err := core.Tune(ctx, c.sp, c.strategy(), timedObjective(c.obj, &e.rounds, e.tr, i, id), opt)
		e.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("campaign %s: %w", c.name, err)
		}
		c.res = res
		if c.defaultRun == nil {
			continue
		}
		if c.def, err = c.defaultRun(); err != nil {
			return 0, fmt.Errorf("campaign %s default run: %w", c.name, err)
		}
	}
	e.markDone()

	var improvement float64
	tuned := 0
	for _, c := range cs {
		res := c.res
		v, err := c.obj(ctx, res.BestConfig)
		e.check(err == nil && math.Float64bits(v) == math.Float64bits(res.BestValue),
			"%s: re-evaluating Best %v gave %v (err %v), BestValue %v", c.name, res.Best, v, err, res.BestValue)
		e.check(measuredBest(res), "%s: Best %v is not a measured trial", c.name, res.Best)
		parts := []any{c.name, res.Best, res.Runs, res.BestValue}
		for _, t := range res.Trials {
			parts = append(parts, t.Value, t.Pruned)
		}
		e.fingerprint(parts...)
		if c.defaultRun == nil {
			continue
		}
		e.check(c.def > 0 && res.BestValue <= c.def,
			"%s: best %v is worse than the default %v", c.name, res.BestValue, c.def)
		improvement += 100 * (c.def - res.BestValue) / c.def
		tuned++
	}
	if e.tr != nil {
		if err := offlineLayers(e, cs); err != nil {
			return 0, err
		}
	}
	return improvement / float64(tuned), nil
}

// measuredBest reports whether Best is a measured, unpruned trial
// whose value is BestValue.
func measuredBest(res *core.Result) bool {
	for _, t := range res.Trials {
		if !t.Pruned && t.Err == nil && t.Point.Equal(res.Best) &&
			math.Float64bits(t.Value) == math.Float64bits(res.BestValue) {
			return true
		}
	}
	return false
}

// offlineLayers fills the traced run's per-layer values of an offline
// workload.
func offlineLayers(e *env, cs []*campaign) error {
	tr, l := e.tr, e.layer
	l["objective.calls"] = tr.counts["objective.calls"]
	l["objective.busy_s"] = tr.counts["objective.busy_s"]
	l["objective.p50_ms"] = median(tr.samples["objective_ms"])
	l["objective.p99_ms"] = quantile(tr.samples["objective_ms"], 0.99)
	l["core.engine_self_s"] = tr.selfTime("campaign", "objective").Seconds()

	var occ float64
	var occN, proposals, runs, specHits, specRuns, pruned, kept int
	var replayS float64
	var next, report []float64
	var def, tuned simStats
	for i, c := range cs {
		res := c.res
		if res.WorkerOccupancy > 0 {
			occ += res.WorkerOccupancy
			occN++
		}
		l["core.queue_starved"] += float64(res.QueueStarved)
		l["core.idle_slots"] += float64(res.IdleSlots)
		proposals += res.Proposals
		runs += res.Runs
		specHits += res.SpeculativeHits
		specRuns += res.SpeculativeRuns
		pruned += res.SurrogatePruned
		kept += res.SurrogateKept
		l["surrogate.fallbacks"] += float64(res.SurrogateFallbacks)

		id := tr.begin("search.replay", i, -1)
		rs, err := replay(c.strategy(), driveOf(c.opt), trialLog(res.Trials))
		tr.end(id)
		e.check(err == nil, "%s: replay: %v", c.name, err)
		replayS += rs.elapsed.Seconds()
		next = append(next, rs.nextUS...)
		report = append(report, rs.reportUS...)

		if c.stats != nil {
			d, best, err := c.stats(res.BestConfig)
			if err != nil {
				return fmt.Errorf("%s: simulator statistics: %w", c.name, err)
			}
			def.add(d)
			tuned.add(best)
		}
		if c.plan != nil {
			seen := make(map[string]bool)
			for _, t := range res.Trials {
				if t.Pruned || t.Run == 0 || t.Err != nil || seen[t.Point.Key()] {
					continue
				}
				seen[t.Point.Key()] = true
				if err := c.plan(tr, t.Config); err != nil {
					return fmt.Errorf("%s: plan for %s: %w", c.name, t.Config.Format(), err)
				}
			}
		}
	}
	if occN > 0 {
		l["core.occupancy_pct"] = 100 * occ / float64(occN)
	}
	l["core.proposals_per_run"] = ratio(proposals, runs)
	l["core.speculative_hit_ratio"] = ratio(specHits, specRuns)
	l["search.replay_s"] = replayS
	l["search.next_us_p50"] = median(next)
	l["search.report_us_p50"] = median(report)
	l["surrogate.pruned_ratio"] = ratio(pruned, pruned+kept)
	l["surrogate.predict_us_p50"] = median(tr.samples["surrogate.predict_us"])
	l["history.hit_ratio"] = ratio(int(tr.counts["history.hits"]), int(tr.counts["history.lookups"]))
	l["history.lookup_us_p50"] = median(tr.samples["history.lookup_us"])
	def.report(l, "default")
	tuned.report(l, "tuned")
	l["sparse.plan_build_ms_p50"] = median(tr.samples["sparse.plan_build_ms"])
	l["sparse.plan_build_ms_p99"] = quantile(tr.samples["sparse.plan_build_ms"], 0.99)
	l["gs2.move_matrix_ms_p50"] = median(tr.samples["gs2.move_matrix_ms"])
	l["gs2.move_matrix_ms_p99"] = quantile(tr.samples["gs2.move_matrix_ms"], 0.99)
	l["pop.layout_ms_p50"] = median(tr.samples["pop.layout_ms"])
	return nil
}

// simStats sums simulated runs' statistics over campaigns.
type simStats struct {
	runs                   int
	messages, bytes        int64
	imbalance, wait, ranks float64
}

func (s *simStats) add(st simmpi.Stats) {
	s.runs++
	s.messages += st.Messages
	s.bytes += st.BytesSent
	s.imbalance += st.LoadImbalance()
	for i := range st.RankClocks {
		s.wait += st.WaitTime[i]
		s.ranks += st.RankClocks[i]
	}
}

// report writes the layer values: messages and bytes summed over
// campaigns, the wait fraction as total wait over total rank time,
// and the mean load imbalance.
func (s *simStats) report(l map[string]float64, which string) {
	if s.runs == 0 {
		return
	}
	l["simmpi.messages."+which] = float64(s.messages)
	l["simmpi.bytes."+which] = float64(s.bytes)
	l["simmpi.wait_frac."+which] = s.wait / s.ranks
	l["simmpi.load_imbalance."+which] = s.imbalance / float64(s.runs)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// petscSize scales the petsc-decomp workload.
type petscSize struct {
	n, runs2  int // Fig. 2 band matrix rows, tuning runs
	nx, runs3 int // Fig. 3 cavity grid side, tuning runs
}

// petscDecomp is the paper's offline PETSc case study: the Fig. 2
// band-matrix SLES decomposition on 32 Seaborg ranks (CG) and the
// Fig. 3 SNES cavity on the heterogeneous 32-processor machine, both
// tuned by the sequential simplex from the default decomposition. The
// seed draws the linear system's right-hand side and the Bratu
// parameter λ: the numbers the solvers compute change, while each
// benchmarking run's work, and hence the tuning trajectory, does not.
func petscDecomp(e *env) (float64, error) {
	sz := petscSize{n: 2000, runs2: 40, nx: 40, runs3: 24}
	if e.tiny {
		sz = petscSize{n: 600, runs2: 8, nx: 16, runs3: 6}
	}
	rng := rand.New(rand.NewSource(e.seed))

	sles := petscsim.NewBandSLESApp(sz.n, 32, 4, 120, 2)
	for i := range sles.B {
		sles.B[i] = 0.5 + rng.Float64()
	}
	seaborg := cluster.Seaborg(sles.P, 1)
	slesSp := sles.Space()
	fig2 := &campaign{
		name: "fig2-sles",
		sp:   slesSp,
		strategy: func() search.Strategy {
			return search.NewSimplex(slesSp, search.SimplexOptions{
				Start:        sles.EvenPoint(),
				StepFraction: 0.35, Adaptive: true, Restarts: 20})
		},
		obj:        sles.Objective(seaborg),
		opt:        core.Options{MaxRuns: sz.runs2},
		defaultRun: func() (float64, error) { return sles.Run(seaborg, sles.DefaultPartition()) },
		stats: func(tuned space.Config) (simmpi.Stats, simmpi.Stats, error) {
			def, err := sles.RunStats(seaborg, sles.DefaultPartition())
			if err != nil {
				return def, def, err
			}
			best, err := sles.RunStats(seaborg, sles.PartitionFor(tuned))
			return def, best, err
		},
		plan: func(tr *tracer, cfg space.Config) error {
			part := sles.PartitionFor(cfg)
			t0 := time.Now()
			_, err := sparse.NewDistMatrix(sles.A, part)
			tr.sample("sparse.plan_build_ms", msSince(t0))
			return err
		},
	}

	cav := petscsim.NewCavityApp(sz.nx, sz.nx, 8, 4)
	cav.Lambda = 4 + 2*rng.Float64()
	het := heterogeneous32()
	cavSp := cav.Space()
	fig3 := &campaign{
		name: "fig3-snes",
		sp:   cavSp,
		strategy: func() search.Strategy {
			return search.NewSimplex(cavSp, search.SimplexOptions{
				Start:        cav.EvenPoint(),
				StepFraction: 0.35, Adaptive: true, Restarts: 8})
		},
		obj: cav.Objective(het),
		opt: core.Options{MaxRuns: sz.runs3},
		defaultRun: func() (float64, error) {
			xb, yb := cav.DefaultBounds()
			return cav.Run(het, xb, yb)
		},
		stats: func(tuned space.Config) (simmpi.Stats, simmpi.Stats, error) {
			xb, yb := cav.DefaultBounds()
			def, err := cav.RunStats(het, xb, yb)
			if err != nil {
				return def, def, err
			}
			xb, yb = cav.BoundsFor(tuned)
			best, err := cav.RunStats(het, xb, yb)
			return def, best, err
		},
	}
	return runOffline(e, []*campaign{fig2, fig3})
}

// heterogeneous32 is the Fig. 3 large-case machine: 32 single-
// processor nodes of two processor generations on a Myrinet-class
// interconnect.
func heterogeneous32() *cluster.Machine {
	g := make([]float64, 32)
	for i := range g {
		if i < 16 {
			g[i] = 0.3
		} else {
			g[i] = 0.8
		}
	}
	return &cluster.Machine{
		Name:   "cluster-heterogeneous-32x1",
		Nodes:  32,
		PPN:    1,
		Gflops: g,
		Intra:  cluster.Link{Latency: 1e-6, Bandwidth: 2.0e9, Overhead: 0.5e-6},
		Inter:  cluster.Link{Latency: 8e-6, Bandwidth: 245e6, Overhead: 2e-6},
	}
}

// gs2PopSize scales the gs2-pop-sweep workload.
type gs2PopSize struct {
	budget, runs3 int   // Fig. 6 sample budget, Table 3 tuning runs
	popNX, popNY  int   // Fig. 4 grid
	runs4         int   // Fig. 4 tuning runs per topology
	topos         []int // Fig. 4 node counts; ppn = 32 / nodes
}

// popStartWidth is how far, in lattice levels, the seed moves each
// coordinate of a Fig. 4 initial guess.
const popStartWidth = 2

// workers is the engine worker count of gs2-pop-sweep: the host's two
// cores.
const workers = 2

// gs2PopSweep runs the parallel-engine offline workload at 2 workers:
// a Fig. 6 systematic sample of the GS2 resolution space on the round
// engine filling a shared evaluation cache, the Table 3 campaign on
// the pipelined engine with the registry surrogate reading through
// that cache, and the Fig. 4 POP block-size tuning. The seed moves
// the Fig. 4 initial guesses; the default block size is always a
// vertex. The GS2 campaigns start from the default resolution, as in
// the paper, so their work does not depend on the seed.
func gs2PopSweep(e *env) (float64, error) {
	sz := gs2PopSize{budget: 120, runs3: 35, popNX: 720, popNY: 480, runs4: 35, topos: []int{4}}
	if e.tiny {
		sz = gs2PopSize{budget: 12, runs3: 6, popNX: 360, popNY: 240, runs4: 5, topos: []int{4}}
	}
	rng := rand.New(rand.NewSource(e.seed))

	base := gs2.DefaultConfig() // a 10-step benchmarking run
	gsp := gs2.ResolutionSpace(64)
	gobj := gs2.ResolutionObjective(gs2.LinuxCluster, base)
	cache := history.NewEvalCache().Bound("gs2-table3", gs2.LinuxCluster(32).Fingerprint(), gsp)
	defStart := gs2.ResolutionStart(gsp, 16, 26, 32)
	gs2Default := func() (float64, error) { return gs2.Run(gs2.LinuxCluster(32), base) }
	gs2Plan := func(tr *tracer, cfg space.Config) error {
		c := base
		c.Negrid, c.Ntheta = int(cfg.Int("negrid")), int(cfg.Int("ntheta"))
		p := gs2.LinuxCluster(int(cfg.Int("nodes"))).Procs()
		t0 := time.Now()
		gs2.MoveMatrix(c.Dims(), c.Layout, frontXY(c.Layout), p)
		tr.sample("gs2.move_matrix_ms", msSince(t0))
		return nil
	}
	fig6 := &campaign{
		name:     "fig6-gs2-sample",
		sp:       gsp,
		strategy: func() search.Strategy { return search.NewSystematic(gsp, sz.budget) },
		obj:      gobj,
		opt:      core.Options{Workers: workers, Cache: cache},
		plan:     gs2Plan,
	}
	table3 := &campaign{
		name: "table3-gs2",
		sp:   gsp,
		strategy: func() search.Strategy {
			return search.NewSimplex(gsp, search.SimplexOptions{
				Start: defStart, StepFraction: 0.5, Restarts: 12})
		},
		obj: gobj,
		opt: core.Options{MaxRuns: sz.runs3, Workers: workers, Async: true, Cache: cache,
			Surrogate: &core.SurrogateOptions{Model: surrogate.For("table3-gs2")}},
		defaultRun: gs2Default,
		plan:       gs2Plan,
	}
	cs := []*campaign{fig6, table3}

	pcfg := pop.DefaultConfig(sz.popNX, sz.popNY)
	pcfg.Land = true
	pcfg.BX, pcfg.BY = 180, 100
	psp := pop.BlockSpace()
	pdef := pop.BlockStart(pcfg.BX, pcfg.BY)
	for _, nodes := range sz.topos {
		m := cluster.Seaborg(nodes, 32/nodes)
		start := jitter(psp, pdef, rng, popStartWidth)
		cs = append(cs, &campaign{
			name: fmt.Sprintf("fig4-pop-%dx%d", nodes, 32/nodes),
			sp:   psp,
			strategy: func() search.Strategy {
				return search.NewSimplex(psp, search.SimplexOptions{
					Start: start, Seeds: []space.Point{pdef}, StepFraction: 0.4, Restarts: 6})
			},
			obj:        pop.BlockObjective(m, pcfg),
			opt:        core.Options{MaxRuns: sz.runs4, Workers: workers},
			defaultRun: func() (float64, error) { return pop.Run(m, pcfg) },
			stats: func(tuned space.Config) (simmpi.Stats, simmpi.Stats, error) {
				def, err := pop.RunStats(m, pcfg)
				if err != nil {
					return def, def, err
				}
				c := pcfg
				c.BX, c.BY = int(tuned.Int("bx")), int(tuned.Int("by"))
				best, err := pop.RunStats(m, c)
				return def, best, err
			},
			plan: func(tr *tracer, cfg space.Config) error {
				c := pcfg
				c.BX, c.BY = int(cfg.Int("bx")), int(cfg.Int("by"))
				t0 := time.Now()
				_, err := c.Layout(m.Procs())
				tr.sample("pop.layout_ms", msSince(t0))
				return err
			},
		})
	}
	return runOffline(e, cs)
}

// frontXY is the target layout of GS2's nonlinear phase: x and y
// moved to the front, the other dimensions in their home order.
func frontXY(l gs2.Layout) gs2.Layout {
	var lead, rest []rune
	for _, c := range string(l) {
		if c == 'x' || c == 'y' {
			lead = append(lead, c)
		} else {
			rest = append(rest, c)
		}
	}
	return gs2.Layout(string(lead) + string(rest))
}
