package main

// The fleet workload: a coordinator (server.New with Fleet, Store and
// Journal) behind httptest, two in-process workers (client.RunWorker),
// each with its own checkpoint store, and one client running a closed loop
// of campaigns. The cold phase simulates every cell and writes the stores
// and the journal; the warm phase restarts server and workers on the same
// directories and resubmits the same specs, so no cell is simulated.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/server"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

const (
	// Each campaign is fleetCells short Figure 4 cells: short enough that
	// the service layers carry a visible share of the cost, and enough
	// campaigns per session for a p90 with ten samples beyond it.
	fleetCells    = 16
	fleetCellTime = 2 * time.Second
	// The client keeps fleetOutstanding campaigns in flight and the server
	// runs that many at once, so a worker that finishes a cell finds the
	// other campaign's cells queued instead of sleeping out the idle-poll
	// hint.
	fleetOutstanding = 2
	// fleetLeaseJobs bounds each campaign's outstanding leases.
	fleetLeaseJobs = 4
	fleetWorkers   = 2
	// fleetPoll is the coordinator's idle-poll hint, as latserved -poll
	// sets it. At the 500 ms default a worker that found the queue empty
	// for a moment sleeps longer than two whole campaigns take, so a few
	// such sleeps decided every campaign latency of a run; at 10 ms they
	// still show, in server.first_lease_wait_ms, without deciding it.
	fleetPoll = 10 * time.Millisecond
	// fleetVerified campaigns, spread over the session, are re-run
	// locally with campaign.Run and must match the fleet's bytes.
	fleetVerified = 2
)

// fleetSpec is campaign i of a run: cells of every OS × stress class,
// seeded from the run seed and i.
func fleetSpec(seed uint64, i int) api.CampaignSpec {
	spec := api.CampaignSpec{BaseSeed: sim.DeriveSeed(seed, fmt.Sprintf("fleet/%d", i))}
	for j := 0; j < fleetCells; j++ {
		os := paperOSes[j%len(paperOSes)]
		c := workload.Classes[(j/len(paperOSes))%len(workload.Classes)]
		key := campaign.ReplicaKey(campaign.MatrixKey(os, c, "fleet"), j/(len(paperOSes)*len(workload.Classes)))
		spec.Cells = append(spec.Cells, api.CellSpec{Key: key, Config: core.RunConfig{OS: os, Workload: c, Duration: fleetCellTime}})
	}
	return spec
}

// fleetCampaign is one submitted campaign's record.
type fleetCampaign struct {
	spec      api.CampaignSpec
	span      int
	submitted time.Time
	firstRun  time.Time // first of its cells to start executing on a worker
	coldSum   string    // SHA-256 of the cold result bytes
}

// fleetRun is the state the phases share: campaigns by index and the
// per-cell identity the workers' executor needs to attribute a cell.
type fleetRun struct {
	s         *session
	mu        sync.Mutex
	campaigns []*fleetCampaign
	bySeed    map[uint64]*fleetCampaign // per-cell derived seed -> campaign
	keyOf     map[uint64]string         // per-cell derived seed -> cell key
	execStart map[string]time.Time      // cell key -> execution start
	first     []executed                // campaign 0's cells, for the codec and store timings
	warm      atomic.Bool
	warmExecs atomic.Int64
	cached    int
	started   int // incarnations of coordinator and workers
}

func (fr *fleetRun) campaign(i int) *fleetCampaign {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for len(fr.campaigns) <= i {
		n := len(fr.campaigns)
		fc := &fleetCampaign{spec: fleetSpec(fr.s.seed, n), span: -1}
		for _, c := range fc.spec.Cells {
			seed := sim.DeriveSeed(fc.spec.Seed(), c.Key)
			fr.bySeed[seed] = fc
			fr.keyOf[seed] = c.Key
		}
		fr.campaigns = append(fr.campaigns, fc)
	}
	return fr.campaigns[i]
}

// execute is the workers' executor: core.Run, attributed to its campaign.
func (fr *fleetRun) execute(cfg core.RunConfig) *core.Result {
	s := fr.s
	t0 := time.Now()
	fr.mu.Lock()
	fc, key := fr.bySeed[cfg.Seed], fr.keyOf[cfg.Seed]
	if fc == nil {
		fr.mu.Unlock()
		panic(fmt.Sprintf("worker leased a cell no campaign submitted (seed %d)", cfg.Seed))
	}
	if fc.firstRun.IsZero() {
		fc.firstRun = t0
		s.tr.add("fleet.first_lease_wait", key, fc.span, fc.submitted, t0)
	}
	fr.execStart[key] = t0
	isFirst := fc == fr.campaigns[0]
	fr.mu.Unlock()
	if fr.warm.Load() {
		fr.warmExecs.Add(1)
	}
	res := core.Run(cfg)
	t1 := time.Now()
	s.tr.add("core.Run", key, fc.span, t0, t1)
	s.cellCounters(res)
	if isFirst {
		fr.mu.Lock()
		fr.first = append(fr.first, executed{key, cfg, res, t0, t1})
		fr.mu.Unlock()
	}
	return res
}

// onCell records a cell's host time on the worker: from the start of its
// execution to its completion being delivered.
func (fr *fleetRun) onCell(key string, err error) {
	fr.mu.Lock()
	t0, ok := fr.execStart[key]
	delete(fr.execStart, key)
	fr.mu.Unlock()
	if ok && err == nil {
		fr.s.cellTime(time.Since(t0))
	}
	if err != nil {
		fr.s.check(fmt.Errorf("worker cell %s: %w", key, err))
	}
}

// fleet is one incarnation of coordinator and workers.
type fleet struct {
	srv     *server.Server
	ts      *httptest.Server
	journal *server.Journal
	cl      *client.Client
	rt      *transport
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	werr    []error
	wmu     sync.Mutex
}

// startFleet opens the stores and the journal under dir, starts the
// coordinator and the workers, and returns once every worker registered.
func (fr *fleetRun) startFleet(dir string) (*fleet, error) {
	s := fr.s
	paths := map[string]string{"server_store": filepath.Join(dir, "server-store"), "journal": filepath.Join(dir, "journal")}
	for w := 0; w < fleetWorkers; w++ {
		paths[fmt.Sprintf("worker%d_store", w)] = filepath.Join(dir, fmt.Sprintf("worker%d-store", w))
	}
	fr.started++
	for name, p := range paths {
		s.noise[fmt.Sprintf("fleet%d_%s_started_empty", fr.started, name)] = dirEmpty(p)
	}
	srvStore, err := store.Open(paths["server_store"])
	if err != nil {
		return nil, err
	}
	srvStore.Instrument(s.reg)
	journal, err := server.OpenJournal(filepath.Join(paths["journal"], "latserved.journal"))
	if err != nil {
		return nil, err
	}
	f := &fleet{journal: journal, rt: &transport{s: s}}
	f.srv = server.New(server.Options{
		Jobs: fleetLeaseJobs, Concurrency: fleetOutstanding,
		Store: srvStore, Journal: journal, Metrics: s.reg,
		Fleet: &server.CoordinatorOptions{Poll: fleetPoll},
	})
	f.ts = httptest.NewServer(f.srv.Handler())
	f.cl = client.New(f.ts.URL, client.Options{HTTP: &http.Client{Transport: f.rt}})
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for w := 0; w < fleetWorkers; w++ {
		wst, err := store.Open(paths[fmt.Sprintf("worker%d_store", w)])
		if err != nil {
			f.stop()
			return nil, err
		}
		opts := client.WorkerOptions{
			Name: fmt.Sprintf("bench-%d", w), Cells: 1, Store: wst,
			Execute: fr.execute, OnCell: fr.onCell,
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := f.cl.RunWorker(ctx, opts); err != nil && !errors.Is(err, context.Canceled) {
				f.wmu.Lock()
				f.werr = append(f.werr, err)
				f.wmu.Unlock()
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := f.cl.Fleet(ctx)
		if err == nil && len(st.Workers) == fleetWorkers {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("workers did not register: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the coordinator, stops the workers and closes the journal.
// Transport errors from here on are shutdown noise, not failures.
func (f *fleet) stop() error {
	f.rt.stopping.Store(true)
	f.srv.Close()
	f.cancel()
	f.wg.Wait()
	f.ts.Close()
	return errors.Join(append(f.werr, f.journal.Close())...)
}

// transport counts every HTTP call and its failures, and in a traced
// session records a span per call named by its operation.
type transport struct {
	s        *session
	stopping atomic.Bool
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	t1 := time.Now()
	op, id := operation(req)
	t.s.tr.add("http."+op, id, -1, t0, t1)
	if t.stopping.Load() {
		return resp, err
	}
	ok := err == nil && resp.StatusCode >= 200 && resp.StatusCode < 300
	retry := err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	t.s.mu.Lock()
	t.s.attempted++
	if !ok {
		t.s.failed++
	}
	if retry {
		t.s.extra["client.retries"]++
	}
	t.s.mu.Unlock()
	return resp, err
}

// operation names an API call by its path: /v1/workers/{id}/leases is
// "lease" for worker id, /v1/campaigns/{id}/result is "result".
func operation(req *http.Request) (op, id string) {
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
	switch {
	case len(parts) == 4 && parts[1] == "workers":
		return strings.TrimSuffix(parts[3], "s"), parts[2]
	case len(parts) == 2 && parts[1] == "workers":
		return "register", ""
	case len(parts) == 4 && parts[1] == "campaigns":
		return parts[3], parts[2]
	case len(parts) == 3 && parts[1] == "campaigns":
		return "status", parts[2]
	case len(parts) == 2 && parts[1] == "campaigns":
		return "submit", ""
	}
	return strings.Join(parts[1:], "."), ""
}

// runCampaign submits campaign i, follows it to a terminal state and
// fetches its result; it returns the submit→result latency and the
// SHA-256 of the result bytes.
func (fr *fleetRun) runCampaign(ctx context.Context, f *fleet, i int, phase string) (time.Duration, string, error) {
	s := fr.s
	fc := fr.campaign(i)
	id := fmt.Sprintf("%s/%d", phase, i)
	t0 := time.Now()
	fr.mu.Lock()
	fc.submitted = t0
	fc.span = s.tr.open("campaign", id, -1, t0)
	span := fc.span
	fr.mu.Unlock()

	st, err := f.cl.Submit(ctx, &fc.spec)
	t1 := time.Now()
	s.tr.add("client.Submit", id, span, t0, t1)
	if err != nil {
		return 0, "", fmt.Errorf("campaign %s: submit: %w", id, err)
	}
	final, err := f.cl.Watch(ctx, st.ID, func(ev api.Event) {
		if ev.Type == api.EventState && ev.State == api.StateRunning && phase == "cold" {
			s.tr.add("server.queue_wait", id, span, t0, time.Now())
		}
	})
	t2 := time.Now()
	s.tr.add("client.Watch", id, span, t1, t2)
	if err != nil {
		return 0, "", fmt.Errorf("campaign %s: watch: %w", id, err)
	}
	if final.State != api.StateDone {
		return 0, "", fmt.Errorf("campaign %s ended %s: %s", id, final.State, final.Error)
	}
	data, err := f.cl.Result(ctx, st.ID)
	t3 := time.Now()
	s.tr.add("client.Result", id, span, t2, t3)
	s.tr.close(span, t3)
	if err != nil {
		return 0, "", fmt.Errorf("campaign %s: result: %w", id, err)
	}
	sum := sha256.Sum256(data)
	s.mu.Lock()
	s.attempted += len(fc.spec.Cells)
	if final.Cached {
		fr.cached++
	}
	s.mu.Unlock()
	return t3.Sub(t0), hex.EncodeToString(sum[:]), nil
}

// closedLoop runs campaigns from fleetOutstanding client goroutines, each
// submitting its next campaign when the previous one returns, until more
// returns false for the next index.
func (fr *fleetRun) closedLoop(f *fleet, phase string, more func(i int) bool, done func(i int, d time.Duration, sum string)) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, fleetOutstanding)
	for g := 0; g < fleetOutstanding; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				d, sum, err := fr.runCampaign(ctx, f, i, phase)
				if err != nil {
					errs[g] = err
					cancel()
					return
				}
				done(i, d, sum)
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runFleet(s *session) error {
	fr := &fleetRun{s: s, bySeed: map[uint64]*fleetCampaign{}, keyOf: map[uint64]string{}, execStart: map[string]time.Time{}}
	s.extra["client.retries"] = 0

	var f *fleet
	dir := ""
	err := s.timeSetup(3, func(last bool) error {
		d := filepath.Join(s.dir, fmt.Sprintf("setup%d", len(s.setup)))
		fl, err := fr.startFleet(d)
		if err != nil {
			return err
		}
		if last {
			f, dir = fl, d
			return nil
		}
		return fl.stop()
	})
	if err != nil {
		return err
	}

	if err := s.startProfile(); err != nil {
		return err
	}
	err = s.timedRegion(func() error {
		deadline := time.Now().Add(s.seconds)
		return fr.closedLoop(f, "cold", func(int) bool { return time.Now().Before(deadline) },
			func(i int, d time.Duration, sum string) {
				s.mu.Lock()
				s.campaigns = append(s.campaigns, d.Seconds())
				s.mu.Unlock()
				fr.campaign(i).coldSum = sum
			})
	})
	if err = errors.Join(err, f.stop()); err != nil {
		return err
	}

	// Warm: a new incarnation on the same directories gets the same specs.
	executed := s.reg.Counter(server.MetricCellsExec).Value()
	fr.warm.Store(true)
	if f, err = fr.startFleet(dir); err != nil {
		return err
	}
	n := len(fr.campaigns)
	err = fr.closedLoop(f, "warm", func(i int) bool { return i < n }, func(i int, d time.Duration, sum string) {
		s.mu.Lock()
		s.warm = append(s.warm, d.Seconds())
		s.mu.Unlock()
		if cold := fr.campaign(i).coldSum; sum != cold {
			s.check(fmt.Errorf("campaign %d: warm result %s differs from cold %s", i, sum, cold))
		}
	})
	err = errors.Join(err, f.stop())
	if perr := s.stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if x := s.reg.Counter(server.MetricCellsExec).Value() - executed; x != 0 || fr.warmExecs.Load() != 0 {
		s.check(fmt.Errorf("warm phase executed %d cells (workers ran %d)", x, fr.warmExecs.Load()))
	}
	s.extra["server.cache_hit_ratio"] = float64(fr.cached) / float64(2*n)

	// The fleet's bytes must equal a local run of the same spec. The
	// session's digest is campaign 0's, which every session runs.
	for k := 0; k < fleetVerified; k++ {
		i := k * (n - 1) / (fleetVerified - 1)
		sum, err := localRun(fr.campaigns[i].spec)
		if err != nil {
			return err
		}
		if sum != fr.campaigns[i].coldSum {
			s.check(fmt.Errorf("campaign %d: fleet result %s differs from local run %s", i, fr.campaigns[i].coldSum, sum))
		}
	}
	s.digest = fr.campaigns[0].coldSum

	if s.tr != nil {
		st, err := store.Open(filepath.Join(s.dir, "codec-store"))
		if err != nil {
			return err
		}
		results := make([]*core.Result, len(fr.first))
		for i, c := range fr.first {
			results[i] = c.res
		}
		fps, err := s.saveCells(st, fr.campaigns[0].spec.Seed(), fr.first)
		if err != nil {
			return err
		}
		if err := s.codecLayer(results, st, fps); err != nil {
			return err
		}
		// The probe replays campaign 0's Win98 Games cell.
		spec := fr.campaigns[0].spec
		for _, c := range spec.Cells {
			if c.Config.OS == ospersona.Win98 && c.Config.Workload == workload.Games {
				cfg := c.Config
				cfg.Seed = sim.DeriveSeed(spec.Seed(), c.Key)
				s.runProbe(cfg)
				break
			}
		}
	}
	return nil
}

// localRun executes a spec with campaign.Run and returns the SHA-256 of
// its result stream, as the server would serve it.
func localRun(spec api.CampaignSpec) (string, error) {
	cells := make([]campaign.Cell, len(spec.Cells))
	for i, c := range spec.Cells {
		cells[i] = campaign.Cell{Key: c.Key, Config: c.Config}
	}
	results, err := campaign.Run(cells, campaign.Options{BaseSeed: spec.Seed(), Jobs: jobs})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, r := range results {
		if err := core.EncodeResult(h, r); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
