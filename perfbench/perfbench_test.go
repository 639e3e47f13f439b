package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/search"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite testdata/replay_log.json")

// TestWorkloadsEmitEveryMetric runs each workload once untraced and
// once traced at a tiny size and checks that every output check
// passed, that the aggregated results carry exactly the declared
// metrics with every end-to-end metric positive, and that the traced
// run measured the layers the workload exercises.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	busy := map[string][]string{
		"petsc-decomp": {"objective.calls", "core.engine_self_s", "search.next_us_p50",
			"sparse.plan_build_ms_p50", "simmpi.messages.tuned", "simmpi.wait_frac.default"},
		"gs2-pop-sweep": {"objective.calls", "core.occupancy_pct", "gs2.move_matrix_ms_p50",
			"pop.layout_ms_p50", "history.lookup_us_p50", "surrogate.predict_us_p50", "simmpi.bytes.tuned"},
		"online-mixed": {"client.fetch_us_p50.json", "client.fetch_us_p50.binary", "client.register_us_p50.binary",
			"server.fetches", "proto.encode_ns.json", "proto.decode_ns.binary", "search.replay_s"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runChild(w, 7, false, true, "")
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runChild(w, 7, true, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*sample{plain, traced} {
				if s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("checks: %d of %d failed: %v", s.Failed, s.Attempted, s.Failures)
				}
			}
			if plain.Fingerprint != traced.Fingerprint {
				t.Errorf("traced fingerprint %s, untraced %s", traced.Fingerprint, plain.Fingerprint)
			}
			for _, name := range busy[w.name] {
				if !(traced.Layer[name] > 0) {
					t.Errorf("traced %s is %v, want > 0", name, traced.Layer[name])
				}
			}
			runs := func(s *sample) []childRun { return []childRun{{sample: s, setupS: 0.01}} }
			for _, trace := range []bool{false, true} {
				res, err := aggregate(w.name, 7, runs(plain), runs(traced), trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("trace=%v: result not correct", trace)
				}
				want := endToEnd
				if trace {
					want = perLayer()
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !trace && !(got.Value > 0):
						t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, got.Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetrics holds BENCHMARK.json at the
// repository root in step with the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"harmony/internal/sparse.matVecKernel", "harmony/internal/sparse.(*DistMatrix).matVec"}, "sparse"},
		// Runtime and standard-library leaves are charged to the
		// repository frame that called them.
		{[]string{"runtime.mallocgc", "runtime.makeslice", "harmony/internal/gs2.MoveMatrix", "main.main"}, "gs2"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "harmony/internal/gs2.accumulateRun"}, "gs2"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "bufio.(*Writer).Flush", "harmony/internal/proto.(*Conn).Send",
			"harmony/internal/client.(*Client).try"}, "proto"},
		{[]string{"harmony/internal/simmpi.(*sched).handoff.func1", "runtime.goexit"}, "simmpi"},
		{[]string{"time.Now", "main.timedObjective.func1", "harmony/internal/core.TuneAsync.func1"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc", "harmony/internal/sparse.NewDistMatrix"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"harmony/internal/analysis.Run"}, "other"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.(*profileBuilder).build"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"harmony/internal/sparse.(*DistMatrix).MatVec": "harmony/internal/sparse",
		"runtime.mallocgc":                 "runtime",
		"main.main.func1":                  "main",
		"internal/runtime/maps.(*Map).get": "internal/runtime/maps",
		"net/http.(*Server).Serve":         "net/http",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeProfile profiles real work in the sparse kernels and
// checks that the decoder charges it to sparse. Only the repository
// buckets are compared: under the race detector most samples land in
// its C runtime, which has no Go frames to attribute.
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	a := sparse.Poisson2D(200, 200)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 20; i++ {
			a.MulVec(x)
		}
	}
	pprof.StopCPUProfile()
	buckets, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var repo int64
	for b, ns := range buckets {
		switch b {
		case "other", "gc", "runtime_sched", "bench":
		default:
			repo += ns
		}
	}
	if buckets["sparse"] == 0 || float64(buckets["sparse"]) < 0.9*float64(repo) {
		t.Errorf("sparse got %d ns of %d in repository buckets: %v", buckets["sparse"], repo, buckets)
	}
}

// recordedLog is a recorded campaign: the strategy's options and the
// trial log it produced.
type recordedLog struct {
	Start  space.Point `json:"start"`
	Trials []struct {
		Point space.Point `json:"point"`
		Value float64     `json:"value"`
	} `json:"trials"`
}

func replaySpace() *space.Space {
	return space.MustNew(
		space.IntParam("a", 0, 99, 1),
		space.IntParam("b", 0, 99, 1),
		space.IntParam("c", 0, 99, 1),
	)
}

func replayObjective(_ context.Context, cfg space.Config) (float64, error) {
	a, b, c := float64(cfg.Int("a")-61), float64(cfg.Int("b")-17), float64(cfg.Int("c")-40)
	return 1 + a*a + 2*b*b + 0.5*c*c + 3*math.Abs(a*b)/(1+math.Abs(c)), nil
}

// TestReplayReproducesRecordedLog replays a simplex against the trial
// log recorded in testdata: the replay must propose exactly the
// recorded points, and a log whose landscape was altered must not
// replay.
func TestReplayReproducesRecordedLog(t *testing.T) {
	sp := replaySpace()
	path := filepath.Join("testdata", "replay_log.json")
	newStrategy := func(start space.Point) search.Strategy {
		return search.NewSimplex(sp, search.SimplexOptions{Start: start, StepFraction: 0.3, Restarts: 4})
	}
	if *update {
		start := space.Point{10, 80, 50}
		res, err := core.Tune(context.Background(), sp, newStrategy(start), replayObjective, core.Options{MaxRuns: 60})
		if err != nil {
			t.Fatal(err)
		}
		rec := recordedLog{Start: start}
		for _, tr := range res.Trials {
			rec.Trials = append(rec.Trials, struct {
				Point space.Point `json:"point"`
				Value float64     `json:"value"`
			}{tr.Point, tr.Value})
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec recordedLog
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	log := make([]logged, len(rec.Trials))
	for i, tr := range rec.Trials {
		log[i] = logged{pt: tr.Point, value: tr.Value}
	}
	if len(log) < 20 {
		t.Fatalf("recorded log has %d trials", len(log))
	}
	rs, err := replay(newStrategy(rec.Start), driveNext, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.nextUS) != len(log) || len(rs.reportUS) != len(log) {
		t.Errorf("timed %d proposals and %d reports for %d trials", len(rs.nextUS), len(rs.reportUS), len(log))
	}

	// Making an early vertex the best by far redirects the search.
	altered := append([]logged(nil), log...)
	altered[1].value = -1e9
	if _, err := replay(newStrategy(rec.Start), driveNext, altered); err == nil {
		t.Error("replay against an altered landscape reproduced the log")
	}
}

// TestReplayFollowsEachEngine checks, for each engine, that replaying
// its campaign through the matching drive reproduces the trial log.
func TestReplayFollowsEachEngine(t *testing.T) {
	sp := replaySpace()
	cases := []struct {
		name     string
		opt      core.Options
		strategy func() search.Strategy
	}{
		{"sequential simplex", core.Options{MaxRuns: 40},
			func() search.Strategy { return search.NewSimplex(sp, search.SimplexOptions{Restarts: 3}) }},
		{"round engine PRO", core.Options{MaxRuns: 40, Workers: 2},
			func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 5}) }},
		{"round engine simplex", core.Options{MaxRuns: 40, Workers: 2},
			func() search.Strategy { return search.NewSimplex(sp, search.SimplexOptions{Restarts: 3}) }},
		{"pipelined simplex", core.Options{MaxRuns: 40, Workers: 2, Async: true},
			func() search.Strategy { return search.NewSimplex(sp, search.SimplexOptions{Restarts: 3}) }},
		{"pipelined random", core.Options{MaxRuns: 30, Workers: 2, Async: true},
			func() search.Strategy { return search.NewRandom(sp, 9, 30) }},
	}
	for _, c := range cases {
		res, err := core.Tune(context.Background(), sp, c.strategy(), replayObjective, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := replay(c.strategy(), driveOf(c.opt), trialLog(res.Trials)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {45, 46}}
	if got := covered(iv); got != 5+20+10 {
		t.Errorf("covered = %d, want 35", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}
