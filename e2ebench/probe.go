package main

// The machine-level probe: one cell replayed directly on the simulated
// machine (ospersona.Build, the workload generators, Machine.RunFor), so
// the event engine's fired-event count can be read. The count is exact and
// must repeat from run to run; host time per event is the engine's cost.

import (
	"fmt"
	"time"

	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

const probeReps = 5

type probeResult struct {
	events     uint64
	nsPerEvent float64
	reps       int
}

// runProbe replays cfg probeReps times and records the event count and the
// median host nanoseconds per event.
func (s *session) runProbe(cfg core.RunConfig) {
	var ns []float64
	for i := 0; i < probeReps; i++ {
		events, d := replay(cfg)
		if i > 0 && events != s.probe.events {
			s.check(fmt.Errorf("probe fired %d events, earlier replay %d", events, s.probe.events))
		}
		s.probe.events = events
		ns = append(ns, float64(d.Nanoseconds())/float64(events))
	}
	s.probe.nsPerEvent = quantile(ns, 0.5)
	s.probe.reps = len(ns)
}

// replay runs one cell's machine and workload without the measurement
// drivers and returns the events fired and the host time RunFor took.
func replay(cfg core.RunConfig) (uint64, time.Duration) {
	cfg = cfg.Normalized()
	opts := ospersona.Options{
		Seed:          cfg.Seed,
		VirusScanner:  cfg.VirusScanner,
		SoundScheme:   cfg.SoundScheme,
		NICModeration: cfg.NICModeration,
	}
	if cfg.NICGapUS > 0 {
		opts.NICGap = sim.DefaultFreq.FromMillis(cfg.NICGapUS / 1000)
	}
	m := ospersona.Build(cfg.OS, opts)
	defer m.Shutdown()
	if cfg.StormPPS > 0 {
		m.EnableStormAccounting()
	}
	t0 := time.Now()
	m.RunFor(m.Freq().Cycles(cfg.Warmup))
	d := time.Since(t0)
	if !cfg.Idle {
		g := workload.New(cfg.Workload, m)
		g.Start()
		defer g.Stop()
	}
	if cfg.StormPPS > 0 {
		st := workload.NewStorm(m, workload.StormConfig{PPS: cfg.StormPPS, Bytes: cfg.StormBytes})
		st.Start()
		defer st.Stop()
	}
	t1 := time.Now()
	m.RunFor(m.Freq().Cycles(cfg.Duration))
	return m.Eng.Fired(), d + time.Since(t1)
}
