package sim

import (
	"container/heap"
	"testing"
)

// Differential oracle for the engine: a deliberately independent reference —
// a container/heap priority queue over (when, seq) with the same observable
// contract (Step, RunUntil batching, Cancel, FIFO at one instant) — is
// driven through identical random scripts, and the two dispatch traces must
// agree entry for entry. The engine's pooling and its sorted-slice queue
// (tail scans, shifts) are invisible to the trace, which is exactly the
// point: they must be.

type traceEntry struct {
	when  Time
	seq   uint64
	label string
}

type refItem struct {
	when  Time
	seq   uint64
	index int // heap index, -1 once popped or removed
	fn    func(Time)
}

type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	it := x.(*refItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*q = old[:n-1]
	return it
}

// refEngine is the reference implementation. Its seq counter must advance
// in lockstep with the engine's: both assign one seq per At, in script
// order.
type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

func (r *refEngine) at(t Time, fn func(Time)) *refItem {
	it := &refItem{when: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.q, it)
	return it
}

func (r *refEngine) cancel(it *refItem) {
	heap.Remove(&r.q, it.index)
}

func (r *refEngine) step() {
	it := heap.Pop(&r.q).(*refItem)
	if it.when > r.now {
		r.now = it.when
	}
	it.fn(r.now)
}

func (r *refEngine) runUntil(t Time) {
	// Re-checking the heap top after every dispatch gives the batching
	// semantics for free: events scheduled mid-batch at or before t —
	// including at the current instant — fire in this same call, in seq
	// order.
	for len(r.q) > 0 && r.q[0].when <= t {
		r.step()
	}
	if r.now < t {
		r.now = t
	}
}

// farHorizon is 255<<24 cycles (~14 s at 300 MHz): far beyond every
// periodic device timer in the simulator, so the deltas around it model
// the rare long-lived event (watchdogs, slow campaign-level timers).
const farHorizon = Cycles(255 << 24)

// fuzzDelta draws a delay biased toward the regimes a bucketed or cached
// queue would get wrong: zero (same-instant FIFO), sub-256 deltas, the
// byte-carry boundaries at 256 and 1<<16, both sides of farHorizon, and the
// far future.
func fuzzDelta(rng *RNG) Cycles {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return Cycles(rng.Intn(256))
	case 2:
		return Cycles(256 + rng.Intn(1<<16))
	case 3: // straddle the 1<<16 carry boundary
		return Cycles(1<<16 - 2 + rng.Intn(4))
	case 4:
		return Cycles(rng.Intn(int(farHorizon)))
	case 5: // just past the horizon
		return farHorizon + Cycles(rng.Intn(1<<20))
	case 6: // just inside the horizon
		return farHorizon - 1 - Cycles(rng.Intn(1<<10))
	default:
		return Cycles(rng.Intn(1 << 30))
	}
}

var fuzzLabels = [...]string{"zero", "l0", "l1", "carry", "mid", "far+", "far-", "far"}

// TestEngineMatchesReferenceEngine drives the engine and the reference
// engine through the same random At/Cancel/Step/RunUntil scripts and requires byte-identical (time, seq, label) dispatch traces.
// Some events spawn a same-or-later-instant child from inside their
// callback, so mid-batch scheduling is exercised on both sides.
func TestEngineMatchesReferenceEngine(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := NewRNG(uint64(trial) + 0x9E3779B9)
		e := NewEngine(1)
		ref := &refEngine{}

		var engTrace, refTrace []traceEntry

		// One live record mirrors one pending event on both sides. The
		// engine callback marks it dead; by the time any later op can pick
		// it, the reference side has dispatched it too (traces are checked
		// to agree), so neither side still holds it.
		type liveRec struct {
			ev    *Event
			it    *refItem
			seq   uint64
			label string
			dead  bool
		}
		var live []*liveRec

		// scheduleBoth schedules a matched pair at absolute time at. spawn
		// controls whether the callbacks schedule a child (delay drawn once,
		// at schedule time, so both sides agree) when they fire.
		scheduleBoth := func(at Time, label string, spawn bool) *liveRec {
			rec := &liveRec{label: label}
			var childD Cycles
			if spawn {
				childD = Cycles(rng.Intn(512)) // 0 allowed: same-instant child
			}
			rec.ev = e.At(at, label, func(now Time) {
				rec.dead = true
				engTrace = append(engTrace, traceEntry{now, rec.seq, rec.label})
				if spawn {
					var cseq uint64
					cseq = e.At(now.Add(childD), "child", func(cn Time) {
						engTrace = append(engTrace, traceEntry{cn, cseq, "child"})
					}).seq
				}
			})
			rec.seq = rec.ev.seq
			rec.it = ref.at(at, func(now Time) {
				refTrace = append(refTrace, traceEntry{now, rec.it.seq, rec.label})
				if spawn {
					var cit *refItem
					cit = ref.at(now.Add(childD), func(cn Time) {
						refTrace = append(refTrace, traceEntry{cn, cit.seq, "child"})
					})
				}
			})
			if rec.seq != rec.it.seq {
				t.Fatalf("trial %d: seq skew at schedule: engine %d, reference %d", trial, rec.seq, rec.it.seq)
			}
			return rec
		}

		// pickLive returns a random still-pending record, compacting dead
		// ones out of the slice as it goes (swap-delete keeps it O(1) and,
		// with the shared rng, deterministic per trial).
		pickLive := func() *liveRec {
			for len(live) > 0 {
				i := rng.Intn(len(live))
				rec := live[i]
				if !rec.dead {
					return rec
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			return nil
		}

		for op := 0; op < 3000; op++ {
			if e.Now() != ref.now {
				t.Fatalf("trial %d op %d: clock skew: engine %d, reference %d", trial, op, e.Now(), ref.now)
			}
			if e.Pending() != ref.q.Len() {
				t.Fatalf("trial %d op %d: pending %d, reference %d", trial, op, e.Pending(), ref.q.Len())
			}
			switch r := rng.Intn(85); {
			case r < 40: // schedule
				k := rng.Intn(len(fuzzLabels)) // label class drawn independently of delta
				d := fuzzDelta(rng)
				live = append(live, scheduleBoth(e.Now().Add(d), fuzzLabels[k], rng.Intn(4) == 0))
			case r < 55: // cancel
				if rec := pickLive(); rec != nil {
					if !e.Cancel(rec.ev) {
						t.Fatalf("trial %d op %d: cancel of live event failed", trial, op)
					}
					ref.cancel(rec.it)
					rec.dead = true
				}
			case r < 70: // single step
				if e.Pending() > 0 {
					e.Step()
					ref.step()
				}
			default: // batched run
				at := e.Now().Add(fuzzDelta(rng))
				e.RunUntil(at)
				ref.runUntil(at)
			}
		}
		// Drain both sides completely.
		for e.Pending() > 0 {
			e.Step()
			ref.step()
		}
		if ref.q.Len() != 0 {
			t.Fatalf("trial %d: reference still holds %d events after engine drained", trial, ref.q.Len())
		}

		if len(engTrace) != len(refTrace) {
			t.Fatalf("trial %d: engine dispatched %d events, reference %d", trial, len(engTrace), len(refTrace))
		}
		for i := range engTrace {
			if engTrace[i] != refTrace[i] {
				t.Fatalf("trial %d: dispatch %d diverges: engine %+v, reference %+v",
					trial, i, engTrace[i], refTrace[i])
			}
		}
	}
}

// TestEngineHeapMatchesOracle drives the engine and the reference queue
// through the same random interleaving of schedule/cancel/step operations
// over short delays (dense same-instant ties) and requires the dispatch
// order (event ids, timestamps) to be identical. The reference is the
// container/heap queue above.
func TestEngineHeapMatchesOracle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := NewRNG(uint64(trial + 1))
		e := NewEngine(1)
		ref := &refEngine{}

		var engFired, oraFired []int
		var engTimes, oraTimes []Time

		// Live handles, kept in sync between engine and oracle by id.
		type livePair struct {
			ev *Event
			it *refItem
		}
		live := map[int]livePair{}
		nextID := 0

		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(85); {
			case r < 45: // schedule
				d := Cycles(rng.Intn(1000)) // delay 0 allowed: same-timestamp FIFO
				id := nextID
				nextID++
				ev := e.After(d, "prop", func(now Time) {
					engFired = append(engFired, id)
					engTimes = append(engTimes, now)
					delete(live, id)
				})
				it := ref.at(ref.now.Add(d), func(now Time) {
					oraFired = append(oraFired, id)
					oraTimes = append(oraTimes, now)
				})
				live[id] = livePair{ev: ev, it: it}
			case r < 60: // cancel a random live event
				for id, p := range live { // first map hit is fine: both sides mirror it
					if !e.Cancel(p.ev) {
						t.Fatalf("trial %d op %d: cancel of live event %d failed", trial, op, id)
					}
					ref.cancel(p.it)
					delete(live, id)
					break
				}
			default: // step
				if e.Pending() != ref.q.Len() {
					t.Fatalf("trial %d op %d: pending %d vs oracle %d", trial, op, e.Pending(), ref.q.Len())
				}
				if e.Pending() > 0 {
					e.Step()
					ref.step()
				}
			}
		}
		for e.Pending() > 0 {
			e.Step()
			ref.step()
		}

		if len(engFired) != len(oraFired) {
			t.Fatalf("trial %d: engine fired %d events, oracle %d", trial, len(engFired), len(oraFired))
		}
		for i := range engFired {
			if engFired[i] != oraFired[i] || engTimes[i] != oraTimes[i] {
				t.Fatalf("trial %d: dispatch %d diverges: engine (%d@%d) oracle (%d@%d)",
					trial, i, engFired[i], engTimes[i], oraFired[i], oraTimes[i])
			}
		}
	}
}
