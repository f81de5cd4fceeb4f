package sim

// Event is a scheduled callback in the simulation. Events are created with
// Engine.At or Engine.After and may be cancelled before they fire. The zero
// Event is not usable.
//
// Event records are pooled: once an event has fired or been cancelled its
// record is recycled into a future At/After call, so a retained *Event is
// only meaningful while Pending reports true. Holders that may outlive
// their event (device re-arm loops, per-thread timeout slots) must drop the
// handle — conventionally by nilling their field at the top of the event's
// own callback — before the engine can hand the record to someone else.
type Event struct {
	when   Time
	seq    uint64 // tie-break: FIFO among events with equal timestamps
	queued bool   // in the engine's queue: scheduled, not yet fired or cancelled
	next   *Event // free-list link while the record is dead
	fn     func(Time)
	label  string
}

// When returns the virtual time at which the event is (or, for a dead
// record not yet recycled, was) scheduled to fire.
func (e *Event) When() Time { return e.when }

// Pending reports whether the event is still in the queue (scheduled and
// neither fired nor cancelled).
func (e *Event) Pending() bool { return e != nil && e.queued }

// Label returns the debugging label attached at scheduling time.
func (e *Event) Label() string {
	if e == nil {
		return ""
	}
	return e.label
}

// The event queue is one slice, Engine.queue, kept sorted descending by
// (when, seq) so the next event to fire is the last element. The machines
// keep a handful of events pending (DESIGN.md §7.2) and the near-term ones
// sit at the tail, so pop is a truncation, and insert and cancel walk from
// the tail, moving each event they pass by one slot as they go. No record
// stores its position, so a move rewrites nothing but the slice.

// queueInsert places ev in order: walking from the tail, it moves up every
// event that fires no later than ev. ev carries the largest seq yet, so it
// fires after every event already queued at its instant (FIFO).
func (e *Engine) queueInsert(ev *Event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for ; i > 0 && q[i-1].when <= ev.when; i-- {
		q[i] = q[i-1]
	}
	q[i] = ev
	e.queue = q
	ev.queued = true
}

// queuePop removes and returns the next event to fire.
func (e *Engine) queuePop() *Event {
	n := len(e.queue) - 1
	ev := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	ev.queued = false
	return ev
}

// queueRemove deletes ev, which must be queued. It walks from the tail,
// where the near-term timers and timeouts that get cancelled sit, moving
// each event it passes down one slot until it has overwritten ev.
func (e *Engine) queueRemove(ev *Event) {
	q := e.queue
	n := len(q) - 1
	carry := q[n]
	for i := n - 1; carry != ev; i-- {
		carry, q[i] = q[i], carry
	}
	q[n] = nil
	e.queue = q[:n]
	ev.queued = false
}
