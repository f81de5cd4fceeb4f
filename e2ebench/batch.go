package main

// The batch workloads, matrix and storm: campaigns run in-process on
// campaign.Runner with no arrival schedule. One campaign is one call of
// the workload's run function on a fresh runner; the timed region repeats
// campaigns back to back for the session's length.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/frontier"
	"wdmlat/internal/hw"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// matrixCellDuration is the virtual collection per matrix cell: long
// enough that steady-state simulation, not machine construction,
// dominates a cell, short enough for a few hundred cells per run.
const matrixCellDuration = time.Minute

// warmCampaigns is how many times a session reruns its last campaign
// from the checkpoint store.
const warmCampaigns = 32

var paperOSes = []ospersona.OS{ospersona.NT4, ospersona.Win98}

type batch struct {
	// warmup cells run on a fresh runner in each set-up.
	warmup []campaign.Cell
	// run executes one campaign on r.
	run func(s *session, r *campaign.Runner) (outcome, error)
	// check applies the paper-shape predicates to one campaign's outcome.
	check func(o outcome) error
	// probeKey names the cell the machine-level probe replays.
	probeKey func(o outcome) string
}

// outcome is one campaign's output, in a fixed order.
type outcome struct {
	results   []*core.Result
	frontiers []frontier.Frontier
}

// digest is the SHA-256 over the outcome's EncodeResult bytes (and, for a
// frontier, its knees): any change to simulated output changes it.
func (o outcome) digest() (string, error) {
	h := sha256.New()
	for _, r := range o.results {
		if err := core.EncodeResult(h, r); err != nil {
			return "", err
		}
	}
	for _, f := range o.frontiers {
		fmt.Fprintf(h, "%v/%v knee %v censored %v\n", f.OS, f.Mode, f.Knee, f.Censored)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// matrix is the Figure 4 matrix plus the Figure 5 virus-scanner and the
// Table 4 cause-tool cells, as cmd/reproduce submits them.
var matrix = batch{
	warmup: []campaign.Cell{
		{Key: "warmup/nt4", Config: core.RunConfig{OS: ospersona.NT4, Workload: workload.Games, Duration: 20 * time.Second}},
		{Key: "warmup/win98", Config: core.RunConfig{OS: ospersona.Win98, Workload: workload.Games, Duration: 20 * time.Second}},
	},
	run: func(s *session, r *campaign.Runner) (outcome, error) {
		base := core.RunConfig{Duration: matrixCellDuration}
		scanner := base
		scanner.OS, scanner.Workload, scanner.VirusScanner = ospersona.Win98, workload.Business, true
		scannerKey := campaign.MatrixKey(ospersona.Win98, workload.Business, "scanner")
		causeKey := campaign.MatrixKey(ospersona.Win98, workload.Business, "causetool")
		r.Submit(campaign.MatrixCells(paperOSes, workload.Classes, "default", base, 1)...)
		r.Submit(campaign.Replicas(scannerKey, scanner, 1)...)
		r.Submit(campaign.Cell{Key: causeKey, Config: core.RunConfig{
			OS: ospersona.Win98, Workload: workload.Business, Duration: matrixCellDuration,
			SoundScheme: true, CauseAnalysis: true, CauseThreshold: 6 * time.Millisecond,
		}})
		var o outcome
		for _, os := range paperOSes {
			for _, c := range workload.Classes {
				res, err := r.Merged(campaign.MatrixKey(os, c, "default"), 1)
				if err != nil {
					return o, err
				}
				o.results = append(o.results, res)
			}
		}
		for _, collect := range []func() (*core.Result, error){
			func() (*core.Result, error) { return r.Merged(scannerKey, 1) },
			func() (*core.Result, error) { return r.Result(causeKey) },
		} {
			res, err := collect()
			if err != nil {
				return o, err
			}
			o.results = append(o.results, res)
		}
		return o, nil
	},
	// The paper's Figure 4 shape, per stress class: Win98's DPC-interrupt
	// tail lies above NT4's (more samples at or beyond 1 ms, where a
	// minute's data separates the two at every seed), and NT4's RT-24
	// thread worst case lies above its RT-28 one.
	check: func(o outcome) error {
		n := len(workload.Classes)
		for i, c := range workload.Classes {
			nt, w98 := o.results[i], o.results[n+i]
			ntTail := nt.DpcInt.CountAtLeast(nt.Freq.FromMillis(1))
			w98Tail := w98.DpcInt.CountAtLeast(w98.Freq.FromMillis(1))
			if w98Tail <= ntTail {
				return fmt.Errorf("%v: Win98 DPC samples >= 1 ms %d not above NT4's %d", c, w98Tail, ntTail)
			}
			lo, hi := nt.Thread[nt.HighPriority()].Max(), nt.Thread[nt.MediumPriority()].Max()
			if hi <= lo {
				return fmt.Errorf("%v: NT4 RT-24 worst %.3f ms not above RT-28 worst %.3f ms",
					c, nt.Freq.Millis(hi), nt.Freq.Millis(lo))
			}
		}
		return nil
	},
	probeKey: func(outcome) string {
		return campaign.ReplicaKey(campaign.MatrixKey(ospersona.Win98, workload.Games, "default"), 0)
	},
}

// stormOptions is the storm frontier: both personas × per-assert and ITR
// moderation, fixed replicas and knee bisection.
var stormOptions = frontier.Options{
	OSes:        paperOSes,
	Modes:       []hw.Moderation{hw.ModeratePerWindow, hw.ModerateITR},
	MinPPS:      16384,
	BisectSteps: 3,
	Duration:    2 * time.Second,
	Runs:        2,
}

var storm = batch{
	warmup: []campaign.Cell{
		{Key: "warmup/nt4", Config: core.RunConfig{OS: ospersona.NT4, Idle: true, StormPPS: 65536, Duration: 2 * time.Second}},
		{Key: "warmup/win98", Config: core.RunConfig{OS: ospersona.Win98, Idle: true, StormPPS: 65536, Duration: 2 * time.Second}},
	},
	run: func(s *session, r *campaign.Runner) (outcome, error) {
		fs, err := frontier.Run(r, stormOptions)
		o := outcome{frontiers: fs}
		probes := 0
		for _, f := range fs {
			for _, p := range f.Probes {
				o.results = append(o.results, p.Result)
				probes++
			}
		}
		s.extra["frontier.probes"] = float64(probes)
		return o, err
	},
	// The committed frontier's shape: in each moderation mode the Win98
	// knee lies strictly below NT4's, and for each persona ITR sustains at
	// least the per-assert rate.
	check: func(o outcome) error {
		knee := map[ospersona.OS]map[hw.Moderation]frontier.Frontier{}
		for _, f := range o.frontiers {
			if knee[f.OS] == nil {
				knee[f.OS] = map[hw.Moderation]frontier.Frontier{}
			}
			knee[f.OS][f.Mode] = f
		}
		for _, mode := range stormOptions.Modes {
			nt, w98 := knee[ospersona.NT4][mode], knee[ospersona.Win98][mode]
			if w98.Censored || !(w98.Knee < nt.Knee) {
				return fmt.Errorf("%v: Win98 knee %s not strictly below NT4 knee %s", mode, w98.KneeLabel(), nt.KneeLabel())
			}
		}
		for _, os := range paperOSes {
			pa, itr := knee[os][hw.ModeratePerWindow], knee[os][hw.ModerateITR]
			if itr.Knee < pa.Knee {
				return fmt.Errorf("%v: ITR knee %s below per-assert knee %s", os, itr.KneeLabel(), pa.KneeLabel())
			}
		}
		return nil
	},
	// The Win98 per-assert cell at its knee: the highest rate it sustains.
	probeKey: func(o outcome) string {
		for _, f := range o.frontiers {
			if f.OS == ospersona.Win98 && f.Mode == hw.ModeratePerWindow {
				return campaign.ReplicaKey(campaign.Key("storm", "win98", f.Mode.String(), fmt.Sprintf("r%d", int64(f.Knee))), 0)
			}
		}
		return ""
	},
}

func runMatrix(s *session) error { return runBatch(s, matrix) }
func runStorm(s *session) error  { return runBatch(s, storm) }

// executed is one cell a campaign simulated, kept for the warm phase and
// the probe.
type executed struct {
	key        string
	cfg        core.RunConfig
	res        *core.Result
	start, end time.Time
}

// cellLog collects the cells one campaign executed.
type cellLog struct {
	mu    sync.Mutex
	cells []executed
}

// executor returns the runner's ExecuteCell: core.Run, timed, with its
// span parented to the campaign's.
func (s *session) executor(log *cellLog, parent int) executeCell {
	return func(key string, cfg core.RunConfig) (*core.Result, error) {
		t0 := time.Now()
		res := core.Run(cfg)
		t1 := time.Now()
		s.tr.add("core.Run", key, parent, t0, t1)
		s.cellCounters(res)
		s.cellTime(t1.Sub(t0))
		log.mu.Lock()
		log.cells = append(log.cells, executed{key, cfg, res, t0, t1})
		log.mu.Unlock()
		return res, nil
	}
}

func runBatch(s *session, b batch) error {
	opts := campaign.Options{BaseSeed: s.seed, Jobs: jobs, Metrics: s.reg}
	err := s.timeSetup(3, func(bool) error {
		r := campaign.New(campaign.Options{BaseSeed: s.seed, Jobs: jobs})
		r.Submit(b.warmup...)
		return r.Wait()
	})
	if err != nil {
		return err
	}

	// Cold: campaigns back to back, no checkpoint store.
	var first, last outcome
	var lastLog *cellLog
	if err := s.startProfile(); err != nil {
		return err
	}
	err = s.timedRegion(func() error {
		start := time.Now()
		for i := 0; time.Since(start) < s.seconds; i++ {
			log, span := &cellLog{}, -1
			out, secs, err := s.batchCampaign(b, opts, fmt.Sprintf("cold/%d", i), func(sp int) executeCell {
				span = sp
				return s.executor(log, sp)
			})
			if err != nil {
				return err
			}
			s.campaigns = append(s.campaigns, secs)
			s.probeSpans(log, span)
			if i == 0 {
				first = out
			}
			last, lastLog = out, log
		}
		return nil
	})
	if perr := s.stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}

	// Output checks: the paper's shape, and byte-identical output from the
	// first and the last campaign.
	s.check(b.check(last))
	d0, err := first.digest()
	if err != nil {
		return err
	}
	d1, err := last.digest()
	if err != nil {
		return err
	}
	if d0 != d1 {
		s.check(fmt.Errorf("first and last campaign output differ: %s vs %s", d0, d1))
	}
	s.digest = d0

	// Warm: the same campaign against a checkpoint store holding every
	// cell, as a rerun with -checkpoint; nothing may be simulated.
	dir := filepath.Join(s.dir, "store")
	s.noise["store_started_empty"] = dirEmpty(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	st.Instrument(s.reg)
	fps, err := s.saveCells(st, s.seed, lastLog.cells)
	if err != nil {
		return err
	}
	for i := 0; i < warmCampaigns; i++ {
		o := opts
		o.Store = st
		out, secs, err := s.batchCampaign(b, o, fmt.Sprintf("warm/%d", i), func(int) executeCell {
			return func(key string, _ core.RunConfig) (*core.Result, error) {
				return nil, fmt.Errorf("warm campaign simulated cell %q", key)
			}
		})
		if err != nil {
			return err
		}
		s.warm = append(s.warm, secs)
		if i == 0 {
			d, err := out.digest()
			if err != nil {
				return err
			}
			if d != s.digest {
				s.check(fmt.Errorf("warm campaign output %s differs from cold %s", d, s.digest))
			}
		}
	}

	if s.tr != nil {
		if err := s.codecLayer(last.results, st, fps); err != nil {
			return err
		}
		key := b.probeKey(last)
		for _, c := range lastLog.cells {
			if c.key == key {
				s.runProbe(c.cfg)
			}
		}
		if s.probe.reps == 0 {
			return fmt.Errorf("probe cell %q was not executed", key)
		}
	}
	return nil
}

type executeCell = func(key string, cfg core.RunConfig) (*core.Result, error)

// batchCampaign runs one campaign of b on a fresh runner whose
// ExecuteCell exec builds from the campaign's span, and returns the
// campaign's outcome and its submit-to-result time in seconds.
func (s *session) batchCampaign(b batch, o campaign.Options, id string, exec func(span int) executeCell) (outcome, float64, error) {
	t0 := time.Now()
	span := s.tr.open("campaign", id, -1, t0)
	o.ExecuteCell = exec(span)
	r := campaign.New(o)
	out, err := b.run(s, r)
	err = s.settle(r, err)
	t1 := time.Now()
	s.tr.close(span, t1)
	return out, t1.Sub(t0).Seconds(), err
}

// settle waits for a campaign's runner and counts its cells: every
// submitted cell is an attempt, every failed one a failure.
func (s *session) settle(r *campaign.Runner, runErr error) error {
	werr := r.Wait()
	_, total := r.Progress()
	failed := len(r.Failed())
	s.mu.Lock()
	s.attempted += total
	s.failed += failed
	s.mu.Unlock()
	if runErr != nil {
		return runErr
	}
	return werr
}

// probeSpans adds one frontier.probe span per storm probe: from its first
// replica's start to its last replica's end.
func (s *session) probeSpans(log *cellLog, parent int) {
	if s.tr == nil {
		return
	}
	type window struct{ start, end time.Time }
	probes := map[string]*window{}
	var order []string
	for _, c := range log.cells {
		if !strings.HasPrefix(c.key, "storm/") {
			continue
		}
		p := c.key[:strings.LastIndexByte(c.key, '/')]
		w := probes[p]
		if w == nil {
			w = &window{c.start, c.end}
			probes[p] = w
			order = append(order, p)
		}
		if c.start.Before(w.start) {
			w.start = c.start
		}
		if c.end.After(w.end) {
			w.end = c.end
		}
	}
	for _, p := range order {
		s.tr.add("frontier.probe", p, parent, probes[p].start, probes[p].end)
	}
}

// saveCells checkpoints cells in st as the campaign runner would, and
// returns their fingerprints.
func (s *session) saveCells(st *store.Store, baseSeed uint64, cells []executed) ([]string, error) {
	fps := make([]string, 0, len(cells))
	for _, c := range cells {
		fp := store.Fingerprint(baseSeed, c.key, c.cfg)
		t0 := time.Now()
		if err := st.Save(fp, c.res); err != nil {
			return nil, err
		}
		s.tr.add("store.Save", c.key, -1, t0, time.Now())
		fps = append(fps, fp)
	}
	return fps, nil
}

// codecLayer times the codec and the checkpoint store directly on one
// campaign's results: EncodeResult, DecodeResult and store.Load of the
// checkpoints saveCells wrote.
func (s *session) codecLayer(results []*core.Result, st *store.Store, fps []string) error {
	var sizes []float64
	for i, res := range results {
		id := fmt.Sprintf("result/%d", i)
		var buf bytes.Buffer
		t0 := time.Now()
		if err := core.EncodeResult(&buf, res); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := core.DecodeResult(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		s.tr.add("core.EncodeResult", id, -1, t0, t1)
		s.tr.add("core.DecodeResult", id, -1, t1, time.Now())
		sizes = append(sizes, float64(buf.Len()))
	}
	s.extra["core.result_bytes"] = quantile(sizes, 0.5)
	for _, fp := range fps {
		t0 := time.Now()
		if _, err := st.Load(fp); err != nil {
			return err
		}
		s.tr.add("store.Load", fp[:12], -1, t0, time.Now())
	}
	return nil
}
