package campaign

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

const shortDur = 10 * time.Second // virtual collection per determinism cell

// sameMeasurements asserts that two results carry identical measured data.
// Histogram bucket contents, sample counts and kernel counters must match
// exactly; float accumulators (sum/sumsq) are included via DeepEqual on
// the histograms, which is exact when the merge order is identical.
func sameMeasurements(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a.Samples != b.Samples {
		t.Fatalf("%s: samples differ: %d vs %d", label, a.Samples, b.Samples)
	}
	if a.Observed != b.Observed {
		t.Fatalf("%s: observed span differs: %d vs %d", label, a.Observed, b.Observed)
	}
	if !reflect.DeepEqual(a.DpcInt, b.DpcInt) {
		t.Fatalf("%s: DpcInt histograms differ", label)
	}
	if !reflect.DeepEqual(a.DpcIntOracle, b.DpcIntOracle) {
		t.Fatalf("%s: DpcIntOracle histograms differ", label)
	}
	if !reflect.DeepEqual(a.IntLat, b.IntLat) || !reflect.DeepEqual(a.DpcLat, b.DpcLat) {
		t.Fatalf("%s: legacy-hook split histograms differ", label)
	}
	if !reflect.DeepEqual(a.Thread, b.Thread) {
		t.Fatalf("%s: thread histograms differ", label)
	}
	if !reflect.DeepEqual(a.HwToThread, b.HwToThread) {
		t.Fatalf("%s: hw-to-thread histograms differ", label)
	}
	if a.Counters != b.Counters {
		t.Fatalf("%s: kernel counters differ:\n%+v\n%+v", label, a.Counters, b.Counters)
	}
	if a.AudioUnderruns != b.AudioUnderruns || a.AudioPeriods != b.AudioPeriods {
		t.Fatalf("%s: audio counters differ", label)
	}
	if len(a.Episodes) != len(b.Episodes) {
		t.Fatalf("%s: episode counts differ: %d vs %d", label, len(a.Episodes), len(b.Episodes))
	}
}

// TestParallelEqualsSerial is the determinism regression test: the same
// campaign run serially (jobs=1) and widely parallel (jobs=8) must produce
// identical merged histograms, counters and episode lists for every cell.
func TestParallelEqualsSerial(t *testing.T) {
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}
	base := core.RunConfig{Duration: shortDur}
	const runs = 3

	serial := New(Options{BaseSeed: 7, Jobs: 1})
	bySerial, err := serial.RunMatrix(oses, workload.Classes, "default", base, runs)
	if err != nil {
		t.Fatal(err)
	}

	parallel := New(Options{BaseSeed: 7, Jobs: 8})
	byParallel, err := parallel.RunMatrix(oses, workload.Classes, "default", base, runs)
	if err != nil {
		t.Fatal(err)
	}

	for _, o := range oses {
		for _, c := range workload.Classes {
			sameMeasurements(t, MatrixKey(o, c, "default"), bySerial[o][c], byParallel[o][c])
		}
	}
}

// TestSubmissionOrderIrrelevant: submitting the same cells in reverse
// order on a different pool width still yields identical per-cell results,
// because seeds derive from keys, not submission indices.
func TestSubmissionOrderIrrelevant(t *testing.T) {
	cells := MatrixCells([]ospersona.OS{ospersona.Win98}, workload.Classes, "default",
		core.RunConfig{Duration: shortDur}, 1)

	forward, err := Run(cells, Options{BaseSeed: 3, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}

	reversed := make([]Cell, len(cells))
	for i, c := range cells {
		reversed[len(cells)-1-i] = c
	}
	backward, err := Run(reversed, Options{BaseSeed: 3, Jobs: 5})
	if err != nil {
		t.Fatal(err)
	}

	for i := range cells {
		j := len(cells) - 1 - i
		sameMeasurements(t, cells[i].Key, forward[i], backward[j])
	}
}

// TestMergeOrderIndependent asserts Result.Merge pools replicas
// order-independently for everything except float accumulator rounding:
// pooling A,B,C and C,B,A must agree exactly on bucket counts, sample
// counts, extrema, quantiles and kernel counters, and up to rounding on
// means.
func TestMergeOrderIndependent(t *testing.T) {
	cfg := core.RunConfig{OS: ospersona.Win98, Workload: workload.Games, Duration: shortDur}
	run := func(i int) *core.Result {
		c := cfg
		c.Seed = core.ReplicaSeed(11, i)
		return core.Run(c)
	}
	// Two independent, identical replica sets (runs are deterministic).
	fwd := run(0)
	fwd.Merge(run(1))
	fwd.Merge(run(2))
	rev := run(2)
	rev.Merge(run(1))
	rev.Merge(run(0))

	if fwd.Samples != rev.Samples || fwd.Observed != rev.Observed {
		t.Fatalf("pooled totals differ across merge order")
	}
	if fwd.Counters != rev.Counters {
		t.Fatalf("pooled counters differ across merge order")
	}
	check := func(name string, a, b *stats.Histogram) {
		if a.N() != b.N() || a.Min() != b.Min() || a.Max() != b.Max() {
			t.Fatalf("%s: shape differs across merge order", name)
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
			if a.Quantile(q) != b.Quantile(q) {
				t.Fatalf("%s: quantile %.3f differs across merge order", name, q)
			}
		}
		for v := sim.Cycles(1); v < a.Max(); v *= 4 {
			if a.CCDF(v) != b.CCDF(v) {
				t.Fatalf("%s: CCDF(%d) differs across merge order", name, v)
			}
		}
		if d := math.Abs(a.Mean() - b.Mean()); d > 1e-6*math.Max(1, a.Mean()) {
			t.Fatalf("%s: mean differs beyond rounding: %g vs %g", name, a.Mean(), b.Mean())
		}
	}
	check("DpcInt", fwd.DpcInt, rev.DpcInt)
	for p := range fwd.Thread {
		check("Thread", fwd.Thread[p], rev.Thread[p])
		check("HwToThread", fwd.HwToThread[p], rev.HwToThread[p])
	}
}

// TestRunnerSeedDerivation: cell seeds depend only on (base, key).
func TestRunnerSeedDerivation(t *testing.T) {
	key := MatrixKey(ospersona.NT4, workload.Web, "default")
	want := sim.DeriveSeed(42, ReplicaKey(key, 0))
	r := New(Options{BaseSeed: 42, Jobs: 2})
	cfg := core.RunConfig{OS: ospersona.NT4, Workload: workload.Web, Duration: time.Second}
	r.Submit(Replicas(key, cfg, 1)...)
	res, err := r.Merged(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Seed != want {
		t.Fatalf("cell seed %d, want derived %d", res.Config.Seed, want)
	}
	if res.Config.OS != ospersona.NT4 || res.Config.Workload != workload.Web {
		t.Fatalf("cell config not preserved: %+v", res.Config)
	}
}

// TestReplicaCellSeedsDisjoint: cell seeds hash (base, key), so campaigns
// at stride-offset base seeds — which shared whole replica streams under
// the additive base + i*7919 scheme — get pairwise disjoint seeds across
// every base and replica.
func TestReplicaCellSeedsDisjoint(t *testing.T) {
	const runs = 16
	key := MatrixKey(ospersona.Win98, workload.Games, "default")
	stub := func(cfg core.RunConfig) *core.Result { return &core.Result{Config: cfg} }
	seen := map[uint64]string{}
	for _, base := range []uint64{3, 3 + 7919, 3 + 2*7919, 7, 7 + 7919} {
		r := New(Options{BaseSeed: base, Jobs: 2, Execute: stub})
		r.Submit(Replicas(key, core.RunConfig{}, runs)...)
		for i := 0; i < runs; i++ {
			res, err := r.Result(ReplicaKey(key, i))
			if err != nil {
				t.Fatal(err)
			}
			who := fmt.Sprintf("base %d replica %d", base, i)
			if prev, dup := seen[res.Config.Seed]; dup {
				t.Fatalf("cell seed %d shared between %s and %s", res.Config.Seed, prev, who)
			}
			seen[res.Config.Seed] = who
		}
	}
}

// TestDuplicateKeyPanics: a key collision would silently correlate cells.
func TestDuplicateKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate key must panic")
		}
	}()
	r := New(Options{Jobs: 1})
	c := Cell{Key: "a/b/c/0", Config: core.RunConfig{Duration: time.Second}}
	r.Submit(c, c)
}

// TestWaitDrainsCampaign: Wait returns only after every cell completes.
func TestWaitDrainsCampaign(t *testing.T) {
	r := New(Options{BaseSeed: 5, Jobs: 4})
	cells := MatrixCells([]ospersona.OS{ospersona.NT4}, workload.Classes, "default",
		core.RunConfig{Duration: time.Second}, 2)
	r.Submit(cells...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		res, err := r.Result(c.Key)
		if err != nil || res == nil {
			t.Fatalf("cell %s missing after Wait: %v", c.Key, err)
		}
	}
}
