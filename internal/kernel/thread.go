package kernel

import (
	"fmt"

	"wdmlat/internal/sim"
)

// threadState is the scheduler-visible lifecycle state of a thread.
type threadState int

const (
	threadReady threadState = iota
	threadStandby
	threadRunning
	threadWaiting
	threadTerminated
)

func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadStandby:
		return "standby"
	case threadRunning:
		return "running"
	case threadWaiting:
		return "waiting"
	case threadTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// request kinds carried over the thread → kernel channel.
type reqKind int

const (
	reqExec reqKind = iota
	reqWait
	reqExit
	reqRaisedExec
	reqWaitAny
	// reqYield carries no payload: the body ran a kernel-context closure
	// inline (see ThreadContext.call) and something above thread level
	// became runnable, so the dispatch loop must take a pass before the
	// body continues.
	reqYield
	// reqPanic forwards a panic from an inlined kernel-context closure to
	// the kernel goroutine: bug checks must unwind the engine (the
	// simulated BSOD), not the offending thread's goroutine.
	reqPanic
)

type request struct {
	kind    reqKind
	cycles  sim.Cycles // reqExec, reqRaisedExec
	obj     Waitable   // reqWait
	objs    []Waitable // reqWaitAny
	timeout sim.Cycles // reqWait/reqWaitAny; <0 means infinite
	irql    IRQL       // reqRaisedExec
	pv      any        // reqPanic
}

type resumeMsg struct {
	status WaitStatus
	index  int // reqWaitAny: which object satisfied the wait
	kill   bool
}

// errKilled is the panic value used to unwind a thread goroutine at
// shutdown.
var errKilled = fmt.Errorf("kernel: thread killed at shutdown")

// Thread is a simulated kernel-mode thread. Its body runs on a dedicated
// goroutine that is resumed by the scheduler exactly when the simulated
// thread runs; the body interacts with the machine solely through its
// ThreadContext, and simulated time only passes at Exec/Wait boundaries.
type Thread struct {
	k        *Kernel
	Name     string
	priority int // effective (base + any dynamic boost)
	base     int // assigned priority
	state    threadState

	resume    chan resumeMsg
	resumeVal resumeMsg
	dead      chan struct{}

	// Execution-segment state while running.
	execRemaining sim.Cycles
	execDone      *sim.Event
	quantumEvent  *sim.Event
	quantumLeft   sim.Cycles
	segStart      sim.Time
	needsResume   bool

	// Wait state.
	waitObj       Waitable
	waitAny       []Waitable // multi-object wait registrations
	waitTimeoutEv *sim.Event

	readiedAt  sim.Time
	cpuTime    sim.Cycles
	switches   uint64
	doneEvent  *Event // signaled at termination; waitable for joins
	terminated bool

	// Per-thread event labels and callbacks, built once at creation so the
	// scheduler's hot paths (exec segments, quanta, wait timeouts, context
	// switches) neither format strings nor allocate closures per event.
	labelExec        string
	labelQuantum     string
	labelWaitTimeout string
	labelWaitAny     string
	labelSwitch      string
	labelRaised      string
	onExecDoneFn     func(sim.Time)
	onQuantumFn      func(sim.Time)
	onWaitTimeoutFn  func(sim.Time)
	onSwitchDoneFn   func(sim.Time)
	onRaisedDoneFn   func(sim.Time)
	switchReadiedAt  sim.Time   // readiedAt latched when the switch began
	raisedCycles     sim.Cycles // cost of the raised-IRQL section in flight
}

// CreateThread creates and readies a kernel thread (PsCreateSystemThread).
// The body runs when the scheduler first dispatches the thread.
func (k *Kernel) CreateThread(name string, priority int, fn func(tc *ThreadContext)) *Thread {
	if priority < MinPriority || priority > MaxPriority {
		panic(fmt.Sprintf("kernel: priority %d out of range", priority))
	}
	if fn == nil {
		panic("kernel: nil thread body")
	}
	t := &Thread{
		k:           k,
		Name:        name,
		priority:    priority,
		base:        priority,
		state:       threadReady,
		resume:      make(chan resumeMsg),
		dead:        make(chan struct{}),
		quantumLeft: k.cfg.Quantum,
		readiedAt:   k.now(),
		needsResume: true,
	}
	t.doneEvent = k.NewEvent(name+".done", NotificationEvent)
	t.labelExec = "exec:" + name
	t.labelQuantum = "quantum:" + name
	t.labelWaitTimeout = "waitTimeout:" + name
	t.labelWaitAny = "waitAnyTimeout:" + name
	t.labelSwitch = "switch:" + name
	t.labelRaised = "raisedIRQL:" + name
	t.onExecDoneFn = func(now sim.Time) { k.onExecDone(t, now) }
	t.onQuantumFn = func(now sim.Time) { k.onQuantumExpiry(t, now) }
	t.onWaitTimeoutFn = func(sim.Time) { k.onWaitTimeout(t) }
	t.onSwitchDoneFn = func(now sim.Time) {
		t.state = threadRunning
		t.switches++
		k.counters.Switches++
		k.current = t
		if k.probe.ThreadDispatched != nil {
			k.probe.ThreadDispatched(t, t.switchReadiedAt, now)
		}
	}
	t.onRaisedDoneFn = func(sim.Time) {
		t.cpuTime += t.raisedCycles
		t.needsResume = true
	}
	k.threads = append(k.threads, t)

	tc := &ThreadContext{k: k, t: t}
	go func() {
		defer close(t.dead)
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				panic(r)
			}
		}()
		msg := <-t.resume
		if msg.kill {
			return
		}
		fn(tc)
		// Body returned: deliver the exit request. The kernel never
		// resumes a terminated thread, so the goroutine ends here.
		tc.req = request{kind: reqExit}
		k.reqCh <- &tc.req
	}()

	k.pushReadyBack(t)
	if k.probe.ThreadReadied != nil {
		k.probe.ThreadReadied(t, t.readiedAt)
	}
	k.maybeRun()
	return t
}

// Priority returns the thread's current effective priority (base plus any
// dynamic boost).
func (t *Thread) Priority() int { return t.priority }

// BasePriority returns the thread's assigned priority.
func (t *Thread) BasePriority() int { return t.base }

// CPUTime returns the accumulated thread-context execution time.
func (t *Thread) CPUTime() sim.Cycles { return t.cpuTime }

// Switches returns how many times the thread has been dispatched.
func (t *Thread) Switches() uint64 { return t.switches }

// Terminated reports whether the thread has exited.
func (t *Thread) Terminated() bool { return t.state == threadTerminated }

// Done returns a notification event signaled when the thread terminates.
func (t *Thread) Done() *Event { return t.doneEvent }

// State returns the scheduler state name, for diagnostics.
func (t *Thread) State() string { return t.state.String() }

// ThreadContext is the API surface a thread body uses to act on the
// machine. Each method that logically takes time round-trips through the
// scheduler, so preemption, interrupts and overhead episodes interleave
// exactly as they would on hardware.
type ThreadContext struct {
	k *Kernel
	t *Thread
	// req is the request in flight over k.reqCh. The channel carries a
	// pointer to this scratch slot rather than the ~100-byte struct: the
	// body goroutine only reuses it after the kernel resumes it, by which
	// point serveOne has consumed the previous request.
	req request
}

// Thread returns the underlying thread.
func (tc *ThreadContext) Thread() *Thread { return tc.t }

// Kernel returns the owning kernel (read-only use).
func (tc *ThreadContext) Kernel() *Kernel { return tc.k }

// Now reads the time stamp counter — GetCycleCount from thread context.
func (tc *ThreadContext) Now() sim.Time { return tc.k.cpu.TSC() }

// await blocks the goroutine until the kernel resumes it, translating a
// shutdown kill into goroutine unwinding.
func (tc *ThreadContext) await() resumeMsg {
	msg := <-tc.t.resume
	if msg.kill {
		panic(errKilled)
	}
	return msg
}

// send delivers a request and blocks until resumed.
func (tc *ThreadContext) send(r request) resumeMsg {
	tc.req = r
	tc.k.reqCh <- &tc.req
	return tc.await()
}

// Exec consumes c cycles of CPU in thread context. The call returns when
// the thread has actually accumulated that much execution, however long
// that takes in virtual time under preemption.
func (tc *ThreadContext) Exec(c sim.Cycles) {
	if c < 0 {
		panic("kernel: negative exec")
	}
	if c == 0 {
		// Nothing to run and nothing above thread level can be pending while
		// the body holds the CPU (see call), so the scheduler pass a
		// round trip would trigger provably resumes us unchanged.
		return
	}
	tc.send(request{kind: reqExec, cycles: c})
}

// ExecDist draws a duration from d and executes it.
func (tc *ThreadContext) ExecDist(d sim.Dist) {
	tc.Exec(d.Draw(tc.k.rng))
}

// ExecRaised executes c cycles at a raised IRQL (KeRaiseIrql / work /
// KeLowerIrql). Per the WDM hierarchy (§4.1), real-time threads "can raise
// IRQL from PASSIVE (lowest) to arbitrarily high levels (i.e., block
// interrupts)": at DISPATCH_LEVEL the section blocks DPCs and rescheduling;
// at HIGH_LEVEL it masks interrupts outright. The section itself is
// preempted only by work above its level.
func (tc *ThreadContext) ExecRaised(irql IRQL, c sim.Cycles) {
	if c < 0 {
		panic("kernel: negative raised exec")
	}
	if irql <= PassiveLevel || irql > HighLevel {
		panic(fmt.Sprintf("kernel: ExecRaised at %v", irql))
	}
	tc.send(request{kind: reqRaisedExec, cycles: c, irql: irql})
}

// call runs fn in kernel context at the current instant (used to build the
// Ke*/Io* wrappers below; fn must not block).
//
// While a thread body runs, the kernel goroutine is parked inside serveOne
// and virtual time stands still, so the body has exclusive access to all
// kernel state and fn can execute right here — no scheduler round trip.
// The round trip is only needed when fn made work runnable above thread
// level (asserted an interrupt, queued a DPC, injected an episode, readied
// a higher-priority thread): exactly the set the dispatch loop would admit
// before resuming this body, and nothing else can have changed, because
// nothing but this body runs between its own requests. Any maybeRun that
// fn triggers is a no-op either way — the kernel goroutine parked inside
// the dispatch loop, so the re-entrancy guard holds.
func (tc *ThreadContext) call(fn func()) {
	tc.runKernelFn(fn)
	k, t := tc.k, tc.t
	if k.irqPending == 0 && len(k.dpcQ) == 0 && len(k.episodes) == 0 &&
		k.bestReadyPriority() <= t.priority {
		return
	}
	tc.send(request{kind: reqYield})
}

// runKernelFn executes an inlined kernel-context closure, re-raising any
// panic on the kernel goroutine so bug checks keep surfacing through the
// engine. The offending goroutine then parks like any bug-checked thread
// (Shutdown still unwinds it).
func (tc *ThreadContext) runKernelFn(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			tc.req = request{kind: reqPanic, pv: r}
			tc.k.reqCh <- &tc.req
			tc.await()
		}
	}()
	fn()
}

// Do runs fn in kernel context at the current virtual instant — the
// general escape hatch for driver bodies that must poke hardware or
// harness state from thread context. fn must not block or advance time.
func (tc *ThreadContext) Do(fn func()) { tc.call(fn) }

// Wait blocks until obj is signaled (KeWaitForSingleObject, infinite).
//
// A wait an initial poll satisfies never blocks, and poll side effects
// (auto-reset clear, semaphore decrement, mutex acquire) make nothing
// runnable, so by the same exclusive-access argument as call the
// scheduler round trip is skipped entirely. beginWait runs the identical
// poll first, so the observable effect sequence is unchanged.
func (tc *ThreadContext) Wait(obj Waitable) WaitStatus {
	if obj != nil && obj.poll(tc.t) {
		return WaitSuccess
	}
	return tc.send(request{kind: reqWait, obj: obj, timeout: -1}).status
}

// WaitAny blocks until any of the objects is signaled
// (KeWaitForMultipleObjects with WaitAny), returning the index of the
// satisfying object. Objects are polled in argument order, so earlier
// objects win ties — the NT semantics.
func (tc *ThreadContext) WaitAny(objs ...Waitable) int {
	if len(objs) == 0 {
		panic("kernel: WaitAny with no objects")
	}
	for i, o := range objs {
		if o.poll(tc.t) { // same first-signaled-wins order as beginWaitAny
			return i
		}
	}
	msg := tc.send(request{kind: reqWaitAny, objs: objs, timeout: -1})
	return msg.index
}

// WaitAnyTimeout is WaitAny with a timeout; index is -1 on timeout.
func (tc *ThreadContext) WaitAnyTimeout(d sim.Cycles, objs ...Waitable) (int, WaitStatus) {
	if len(objs) == 0 {
		panic("kernel: WaitAny with no objects")
	}
	if d < 0 {
		panic("kernel: negative wait timeout")
	}
	for i, o := range objs {
		if o.poll(tc.t) {
			return i, WaitSuccess
		}
	}
	msg := tc.send(request{kind: reqWaitAny, objs: objs, timeout: d})
	if msg.status == WaitTimedOut {
		return -1, msg.status
	}
	return msg.index, msg.status
}

// WaitTimeout blocks until obj is signaled or d cycles elapse.
func (tc *ThreadContext) WaitTimeout(obj Waitable, d sim.Cycles) WaitStatus {
	if d < 0 {
		panic("kernel: negative wait timeout")
	}
	if obj != nil && obj.poll(tc.t) {
		return WaitSuccess // satisfied before the timeout is ever armed
	}
	return tc.send(request{kind: reqWait, obj: obj, timeout: d}).status
}

// Sleep blocks the thread for d cycles (KeDelayExecutionThread).
func (tc *ThreadContext) Sleep(d sim.Cycles) {
	if d < 0 {
		panic("kernel: negative sleep")
	}
	tc.send(request{kind: reqWait, obj: nil, timeout: d})
}

// SetEvent signals an event from thread context (KeSetEvent).
func (tc *ThreadContext) SetEvent(ev *Event) { tc.call(func() { ev.set() }) }

// ResetEvent clears an event (KeResetEvent).
func (tc *ThreadContext) ResetEvent(ev *Event) { tc.call(ev.reset) }

// ReleaseSemaphore releases n units (KeReleaseSemaphore).
func (tc *ThreadContext) ReleaseSemaphore(s *Semaphore, n int) {
	tc.call(func() { s.release(n) })
}

// ReleaseMutex releases a mutex owned by this thread (KeReleaseMutex).
func (tc *ThreadContext) ReleaseMutex(m *Mutex) {
	tc.call(func() { m.release(tc.t) })
}

// SetPriority changes this thread's priority (KeSetPriorityThread). The
// paper's measurement thread raises itself to real-time priority this way
// (§2.2.4).
func (tc *ThreadContext) SetPriority(p int) {
	if p < MinPriority || p > MaxPriority {
		panic(fmt.Sprintf("kernel: priority %d out of range", p))
	}
	tc.call(func() {
		tc.t.base = p
		tc.t.priority = p
	})
}

// QueueDpc inserts a DPC from thread context.
func (tc *ThreadContext) QueueDpc(d *DPC) { tc.call(func() { tc.k.queueDpc(d) }) }

// SetTimer (re)arms a timer relative to now (KeSetTimer).
func (tc *ThreadContext) SetTimer(t *Timer, delay sim.Cycles, dpc *DPC) {
	tc.call(func() { tc.k.setTimer(t, delay, dpc) })
}

// CancelTimer disarms a timer (KeCancelTimer).
func (tc *ThreadContext) CancelTimer(t *Timer) { tc.call(func() { tc.k.cancelTimer(t) }) }

// CompleteIrp completes an I/O request packet (IoCompleteRequest).
func (tc *ThreadContext) CompleteIrp(irp *IRP) { tc.call(func() { tc.k.completeIrp(irp) }) }
