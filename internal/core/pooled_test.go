package core_test

// Pooled-replica tests. Replicas of one cell are scheduled and pooled by
// internal/campaign (Runner.Merged); these tests pin what core promises that
// pooling: ReplicaSeed keeps replica 0 on the cell seed, Run is a pure
// function of its config, and Clone/Merge accumulate in replica order.

import (
	"reflect"
	"testing"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

// pooled runs runs replicas of cfg as one campaign cell at most jobs wide
// and returns the runner together with the pooled result.
func pooled(t *testing.T, cfg core.RunConfig, base uint64, runs, jobs int) (*campaign.Runner, string, *core.Result) {
	t.Helper()
	key := campaign.MatrixKey(cfg.OS, cfg.Workload, "default")
	r := campaign.New(campaign.Options{BaseSeed: base, Jobs: jobs})
	r.Submit(campaign.Replicas(key, cfg, runs)...)
	res, err := r.Merged(key, runs)
	if err != nil {
		t.Fatal(err)
	}
	return r, key, res
}

// cellSeed is the seed replica 0 of cfg's cell runs at under base.
func cellSeed(cfg core.RunConfig, base uint64) uint64 {
	key := campaign.MatrixKey(cfg.OS, cfg.Workload, "default")
	return sim.DeriveSeed(base, campaign.ReplicaKey(key, 0))
}

// TestRunMergedJobsDeterministic: pooled replicas must merge to the same
// result whether they ran serially or on a wide pool. DeepEqual over the
// histograms is exact because the merge order (replica index) is fixed.
func TestRunMergedJobsDeterministic(t *testing.T) {
	cfg := core.RunConfig{
		OS:       ospersona.Win98,
		Workload: workload.Business,
		Duration: 10 * time.Second,
	}
	_, _, serial := pooled(t, cfg, 9, 4, 1)
	_, _, wide := pooled(t, cfg, 9, 4, 8)
	if serial.Samples != wide.Samples || serial.Observed != wide.Observed {
		t.Fatalf("pooled totals differ: serial %d/%d, wide %d/%d",
			serial.Samples, serial.Observed, wide.Samples, wide.Observed)
	}
	if !reflect.DeepEqual(serial.DpcInt, wide.DpcInt) ||
		!reflect.DeepEqual(serial.Thread, wide.Thread) ||
		!reflect.DeepEqual(serial.HwToThread, wide.HwToThread) {
		t.Fatalf("pooled histograms differ between jobs=1 and jobs=8")
	}
	if serial.Counters != wide.Counters {
		t.Fatalf("pooled counters differ between jobs=1 and jobs=8")
	}
}

// TestRunMergedPoolsDistributions: a pooled cell carries every replica's
// samples, span and histogram counts, and its maximum dominates each
// replica's.
func TestRunMergedPoolsDistributions(t *testing.T) {
	const runs = 3
	cfg := core.RunConfig{OS: ospersona.Win98, Workload: workload.Games, Duration: 20 * time.Second}
	r, key, merged := pooled(t, cfg, 33, runs, 2)
	var samples, n uint64
	var observed sim.Cycles
	for i := 0; i < runs; i++ {
		rep, err := r.Result(campaign.ReplicaKey(key, i))
		if err != nil {
			t.Fatal(err)
		}
		samples += rep.Samples
		observed += rep.Observed
		n += rep.Thread[28].N()
		if merged.Thread[28].Max() < rep.Thread[28].Max() {
			t.Fatalf("pooled max below replica %d's max", i)
		}
	}
	if merged.Samples != samples || merged.Observed != observed {
		t.Fatalf("pooled samples/span %d/%d, replicas sum to %d/%d",
			merged.Samples, merged.Observed, samples, observed)
	}
	if merged.Thread[28].N() != n {
		t.Fatalf("pooled histogram holds %d samples, replicas sum to %d", merged.Thread[28].N(), n)
	}
}

// TestRunMergedSingleRunEqualsRun: a one-replica cell is a plain Run at the
// cell's seed, down to the histogram buckets.
func TestRunMergedSingleRunEqualsRun(t *testing.T) {
	cfg := core.RunConfig{OS: ospersona.NT4, Workload: workload.Web, Duration: 5 * time.Second}
	_, _, b := pooled(t, cfg, 13, 1, 1)
	plain := cfg
	plain.Seed = cellSeed(cfg, 13)
	a := core.Run(plain)
	if !reflect.DeepEqual(a.DpcInt, b.DpcInt) || a.Samples != b.Samples {
		t.Fatalf("one-replica pooled cell differs from Run")
	}
}

// TestRunMergedSingleIsPlainRun: the same identity on a second class, where
// the thread-latency maximum must also survive the one-replica pool.
func TestRunMergedSingleIsPlainRun(t *testing.T) {
	cfg := core.RunConfig{OS: ospersona.NT4, Workload: workload.Business, Duration: 10 * time.Second}
	_, _, b := pooled(t, cfg, 34, 1, 1)
	plain := cfg
	plain.Seed = cellSeed(cfg, 34)
	a := core.Run(plain)
	if a.Samples != b.Samples || a.Thread[28].Max() != b.Thread[28].Max() {
		t.Fatal("one-replica pooled cell differs from Run")
	}
}
