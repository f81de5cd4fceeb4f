// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload — matrix, storm or fleet, see README.md — through the
// program's public APIs, checks the outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
// the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1.
//
// Run it through run.sh from the root of the checkout:
//
//	bash e2ebench/run.sh --workload matrix --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
)

// jobs is the simulation parallelism of every workload: the benchmark host
// has two CPUs, so two simulation workers (or two fleet workers) fill it.
const jobs = 2

func main() {
	name := flag.String("workload", "", "workload to run: matrix, storm or fleet")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: untraced then traced session, per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

var workloads = map[string]func(*session) error{
	"matrix": runMatrix,
	"storm":  runStorm,
	"fleet":  runFleet,
}

// slices is how many sessions the timed pass splits --seconds into. The
// shared host's speed drifts in episodes of several seconds; the run
// reports each timing as a median over the slices (see endToEnd), so an
// episode that covers fewer than half of them does not move it.
const slices = 5

func run(name string, seed uint64, seconds int, traced bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want matrix, storm or fleet)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.MkdirTemp(".bench_build", "e2ebench-"+name+"-")
	if err != nil {
		return fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(root)

	d := time.Duration(seconds) * time.Second
	var runs []*session
	session := func(dir string, d time.Duration, tr *tracer) error {
		s := &session{seed: seed, seconds: d, dir: filepath.Join(root, dir), tr: tr,
			reg: metrics.NewRegistry(), noise: map[string]any{}}
		runs = append(runs, s)
		return s.do(wl)
	}
	// The untraced sessions give the end-to-end metrics. With -trace 1 a
	// traced session follows a single untraced one; the change in
	// throughput between the two is the tracing overhead, so there the
	// untraced session only needs to be long enough for a rate.
	calibBefore := hostCalibration()
	if traced {
		if err := session("plain", d/2, nil); err != nil {
			return err
		}
		if err := session("traced", d, newTracer()); err != nil {
			return err
		}
	} else {
		for i := 0; i < slices; i++ {
			if err := session(fmt.Sprintf("slice%d", i), d/slices, nil); err != nil {
				return err
			}
		}
	}
	noise := map[string]any{"host_calibration_ms": []float64{calibBefore, hostCalibration()}}
	recordNoise(noise, name, seed, traced)
	attempted, failed := 0, 0
	var failures []error
	sessions := map[string]any{}
	noise["sessions"] = sessions
	for _, s := range runs {
		sessions[filepath.Base(s.dir)] = s.noise
		attempted += s.attempted
		failed += s.failed
		failures = append(failures, s.checkErrs...)
		// The same seed gives the same inputs, so every session's output
		// must be the same.
		if s.digest != runs[0].digest {
			failures = append(failures, fmt.Errorf("%s output %s differs from %s output %s",
				filepath.Base(s.dir), s.digest, filepath.Base(runs[0].dir), runs[0].digest))
		}
	}
	rep := &report{}
	if traced {
		s := runs[1]
		perLayer(rep, s, runs[0])
		path := filepath.Join(".bench_build", fmt.Sprintf("e2ebench-trace-%s-seed%d.json", name, seed))
		if err := writeTrace(path, noise, s.tr, s.shares); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace written to %s\n", path)
	} else {
		endToEnd(rep, runs, attempted, failed)
	}
	line, _ := json.Marshal(noise)
	fmt.Printf("noise %s\n", line)
	fmt.Printf("output sha256 %s\n", runs[0].digest)
	for _, e := range failures {
		fmt.Printf("CHECK FAILED: %v\n", e)
	}
	rep.print(os.Stdout)

	correct := len(failures) == 0
	line, err = json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   rep.json(),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errors.New("output checks failed")
	}
	return nil
}

// session is one execution of a workload: repeated set-up, the timed
// region, the warm phase and the output checks. A traced session also
// records spans, a CPU profile and the machine-level probe.
type session struct {
	seed    uint64
	seconds time.Duration
	dir     string            // stores and journals live here
	tr      *tracer           // nil when untraced
	reg     *metrics.Registry // the program's own telemetry
	noise   map[string]any

	mu        sync.Mutex
	setup     []float64 // seconds per set-up
	campaigns []float64 // cold campaign latency, s
	warm      []float64 // warm campaign latency, s
	cells     []float64 // host ms per cell
	timed     time.Duration
	nCells    int
	simSecs   float64
	attempted int
	failed    int
	totals    cellTotals
	mallocs   uint64 // heap allocations during the timed region
	extra     map[string]float64

	prof      *profiler
	shares    map[string]float64 // traced: flat CPU share per layer, %
	probe     probeResult        // traced: machine-level probe
	digest    string
	checkErrs []error
}

// do runs the workload in the session's directory.
func (s *session) do(wl func(*session) error) error {
	s.extra = map[string]float64{}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	return wl(s)
}

func (s *session) check(err error) {
	if err != nil {
		s.mu.Lock()
		s.checkErrs = append(s.checkErrs, err)
		s.mu.Unlock()
	}
}

// cellTotals sums the simulated machine's counters over the cells a
// session executed.
type cellTotals struct {
	switches, interrupts, dpcs uint64
	samples                    uint64
	delivered, asserts         uint64
	offered, dropped           uint64
}

// cellCounters adds one executed cell's simulated machine counters.
func (s *session) cellCounters(res *core.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nCells++
	s.simSecs += res.Freq.Millis(res.Observed) / 1000
	c := res.Counters
	s.totals.switches += c.Switches
	s.totals.interrupts += c.Interrupts
	s.totals.dpcs += c.DPCs
	s.totals.samples += res.Samples
	if st := res.Storm; st != nil {
		s.totals.delivered += st.Delivered
		s.totals.asserts += st.Asserts
		s.totals.offered += st.Offered
		s.totals.dropped += st.Dropped
	}
}

// cellTime records one cell's host time.
func (s *session) cellTime(d time.Duration) {
	s.mu.Lock()
	s.cells = append(s.cells, ms(d))
	s.mu.Unlock()
}

// timeSetup repeats a set-up n times and records each duration.
func (s *session) timeSetup(n int, setup func(last bool) error) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
	}
	return nil
}

// timedRegion runs body as the timed region, counting heap allocations.
func (s *session) timedRegion(body func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := body()
	s.timed = time.Since(t0)
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	return err
}

// startProfile starts the CPU profile of a traced session.
func (s *session) startProfile() error {
	if s.tr == nil {
		return nil
	}
	p, err := startProfile()
	s.prof = p
	return err
}

// stopProfile stops the profile and keeps its flat share per layer.
func (s *session) stopProfile() error {
	if s.prof == nil {
		return nil
	}
	shares, err := s.prof.stop()
	s.shares, s.prof = shares, nil
	return err
}

func recordNoise(noise map[string]any, name string, seed uint64, traced bool) {
	noise["workload"] = name
	noise["seed"] = seed
	noise["go"] = runtime.Version()
	noise["gomaxprocs"] = runtime.GOMAXPROCS(0)
	noise["nproc"] = runtime.NumCPU()
	noise["cpu"] = cpuModel()
	noise["traced"] = traced
}

// hostCalibration times a fixed computation that does not touch the
// program, in ms. The noise record carries it from the start and the end
// of a run, so a reader can tell a slower host from a slower program.
func hostCalibration() float64 {
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	for i := 0; i < 16; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	return ms(time.Since(t0))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// dirEmpty reports whether dir is missing or holds no entries: the noise
// record notes whether each store and journal started empty.
func dirEmpty(dir string) bool {
	entries, err := os.ReadDir(dir)
	return err != nil || len(entries) == 0
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQ is the quantile a tail metric reports: the wanted one if at least
// ten samples lie beyond it, else the highest that leaves ten beyond, and
// the median when fewer than twenty samples leave no tail to report.
func tailQ(n int, want float64) float64 {
	q := want
	if n > 0 {
		q = min(want, 1-10/float64(n))
	}
	return max(q, 0.5)
}
