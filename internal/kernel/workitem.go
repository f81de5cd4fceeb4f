package kernel

import "wdmlat/internal/sim"

// WorkItem is a unit of passive-level work executed by the kernel worker
// thread (ExQueueWorkItem). The paper singles the work-item queue out: it
// is "serviced by a real-time default priority thread, which accounts for
// the large difference between high and default priority threads under
// NT 4.0" (§4.2). Workloads enqueue work items to generate exactly that
// interference.
type WorkItem struct {
	Name   string
	Cycles sim.Cycles
	// Fn, if non-nil, runs in the worker thread's context after the cost
	// has been executed.
	Fn func(tc *ThreadContext)
}

// QueueWorkItem appends w to the work queue and wakes the worker. Safe to
// call from simulation-harness context and from ISR/DPC contexts.
func (k *Kernel) QueueWorkItem(w *WorkItem) {
	if w == nil || w.Cycles < 0 {
		panic("kernel: invalid work item")
	}
	k.workQ = append(k.workQ, w)
	k.workSem.release(1)
	k.maybeRun()
}

// WorkQueueLen returns the number of queued-but-unstarted work items.
func (k *Kernel) WorkQueueLen() int { return len(k.workQ) }

// Worker returns the worker thread (available after Boot).
func (k *Kernel) Worker() *Thread { return k.worker }

// workerBody is the ExWorkerThread main loop.
func (k *Kernel) workerBody(tc *ThreadContext) {
	for {
		tc.Wait(k.workSem)
		var w *WorkItem
		tc.call(func() {
			if len(k.workQ) > 0 {
				// Shift down rather than reslice from the front: the
				// queue is short, and keeping the backing array's base
				// lets the next QueueWorkItem append in place instead
				// of reallocating.
				w = k.workQ[0]
				n := copy(k.workQ, k.workQ[1:])
				k.workQ[n] = nil
				k.workQ = k.workQ[:n]
			}
		})
		if w == nil {
			continue
		}
		if w.Cycles > 0 {
			tc.Exec(w.Cycles)
		}
		if w.Fn != nil {
			w.Fn(tc)
		}
	}
}
