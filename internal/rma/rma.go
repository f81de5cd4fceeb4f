// Package rma implements fixed-priority schedulability analysis and the
// paper's extension of it to general-purpose operating systems (§5.2,
// building on the authors' earlier Schedulability Analysis work [4]):
//
//   - classic rate-monotonic analysis: the Liu & Layland utilization bound
//     and exact response-time analysis for fixed-priority preemptive task
//     sets;
//   - the "pseudo worst-case" method: on an OS whose worst-case service
//     times are orders of magnitude above its averages, pick the worst case
//     as a function of a permissible error rate (e.g. one dropped buffer
//     per hour) from a measured latency distribution, and feed that into
//     the standard analysis instead of the true (hopeless) worst case.
package rma

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
)

// Task is a periodic task with implicit or constrained deadline.
type Task struct {
	Name    string
	Period  sim.Cycles
	Compute sim.Cycles
	// Deadline relative to release; 0 means Deadline = Period.
	Deadline sim.Cycles
	// Blocking is extra per-activation delay from OS overhead (the pseudo
	// worst case of §5.2 goes here).
	Blocking sim.Cycles
}

func (t Task) deadline() sim.Cycles {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}

// Validate checks task sanity.
func (t Task) Validate() error {
	if t.Period <= 0 {
		return fmt.Errorf("rma: task %q has non-positive period", t.Name)
	}
	if t.Compute <= 0 {
		return fmt.Errorf("rma: task %q has non-positive compute", t.Name)
	}
	if t.Compute+t.Blocking > t.deadline() {
		return fmt.Errorf("rma: task %q cannot meet its deadline even alone", t.Name)
	}
	return nil
}

// Utilization returns the task set's processor utilization.
func Utilization(tasks []Task) float64 {
	var u float64
	for _, t := range tasks {
		u += float64(t.Compute) / float64(t.Period)
	}
	return u
}

// LiuLaylandBound returns n(2^{1/n} − 1), the sufficient utilization bound
// for rate-monotonic scheduling of n tasks [15].
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// PassesUtilizationTest reports whether the set passes the (sufficient, not
// necessary) Liu & Layland test.
func PassesUtilizationTest(tasks []Task) bool {
	return Utilization(tasks) <= LiuLaylandBound(len(tasks))
}

// Result is a per-task analysis outcome.
type Result struct {
	Task      Task
	Response  sim.Cycles
	Meets     bool
	Converged bool
}

// Analyze performs exact response-time analysis under rate-monotonic
// priority assignment (shorter period = higher priority):
//
//	R_i = C_i + B_i + Σ_{j∈hp(i)} ceil(R_i / T_j) · C_j
//
// iterated to fixpoint [13][14]. It returns per-task results and whether
// the whole set is schedulable.
func Analyze(tasks []Task) ([]Result, bool, error) {
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, false, err
		}
	}
	order := make([]Task, len(tasks))
	copy(order, tasks)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Period < order[j].Period })

	results := make([]Result, len(order))
	all := true
	for i, t := range order {
		r := t.Compute + t.Blocking
		converged := false
		for iter := 0; iter < 10000; iter++ {
			next := t.Compute + t.Blocking
			for j := 0; j < i; j++ {
				hp := order[j]
				next += sim.Cycles(ceilDiv(int64(r), int64(hp.Period))) * hp.Compute
			}
			if next == r {
				converged = true
				break
			}
			r = next
			if r > 100*t.deadline() {
				break // diverging: unschedulable by a mile
			}
		}
		meets := converged && r <= t.deadline()
		results[i] = Result{Task: t, Response: r, Meets: meets, Converged: converged}
		if !meets {
			all = false
		}
	}
	return results, all, nil
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("rma: division by non-positive period")
	}
	return (a + b - 1) / b
}

// PseudoWorstCase picks the worst-case OS latency to design against, as a
// function of the permissible error rate (§5.2): the smallest level L such
// that latencies >= L occur no more often than once per errorPeriod.
// "One chooses the worst case latency as a function of the permissible
// error rate: for example, one dropped buffer every five or ten minutes for
// low latency audio ..., one dropped buffer per hour for a soft modem, or
// one dropped buffer per day for a more high-reliability device."
func PseudoWorstCase(h *stats.Histogram, observed, errorPeriod sim.Cycles) sim.Cycles {
	if h.N() == 0 || observed <= 0 || errorPeriod <= 0 {
		return 0
	}
	// Binary search over latency levels at bucket resolution: rate(>=L)
	// is non-increasing in L, so find the smallest L whose expected count
	// per errorPeriod is <= 1.
	lo, hi := sim.Cycles(0), h.Max()+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		expected := h.RateAbove(mid, observed) * float64(errorPeriod)
		if expected <= 1 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// DesignTask builds the schedulability model of a driver computation that
// waits on interrupts: compute per period plus the pseudo worst-case
// dispatch latency as blocking.
func DesignTask(name string, period, compute sim.Cycles, h *stats.Histogram, observed, errorPeriod sim.Cycles) Task {
	return Task{
		Name:     name,
		Period:   period,
		Compute:  compute,
		Blocking: PseudoWorstCase(h, observed, errorPeriod),
	}
}

// ErrorBudget is a permissible error rate: at most one dropped buffer per
// Period.
type ErrorBudget struct {
	Name   string
	Period time.Duration
}

// ErrorBudgets are the §5.2 error rates, from low-latency audio (one drop
// every five or ten minutes) through a soft modem (one per hour) to a
// high-reliability device (one per day).
var ErrorBudgets = []ErrorBudget{
	{"1 drop/5 min", 5 * time.Minute},
	{"1 drop/10 min", 10 * time.Minute},
	{"1 drop/hour", time.Hour},
	{"1 drop/day", 24 * time.Hour},
}

// DriverTaskSet is a representative host-based signal processing task set:
// soft modem datapump (8 ms period, 2 ms compute), low-latency audio mix
// (16 ms, 15%) and video capture post-processing (33 ms, 20%), each blocked
// by the design latency block.
func DriverTaskSet(freq sim.Freq, block sim.Cycles) []Task {
	return []Task{
		{Name: "softmodem datapump", Period: freq.FromMillis(8), Compute: freq.FromMillis(2), Blocking: block},
		{Name: "soft audio mixer", Period: freq.FromMillis(16), Compute: sim.Cycles(float64(freq.FromMillis(16)) * 0.15), Blocking: block},
		{Name: "video capture", Period: freq.FromMillis(33), Compute: sim.Cycles(float64(freq.FromMillis(33)) * 0.20), Blocking: block},
	}
}
