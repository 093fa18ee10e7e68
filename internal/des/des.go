// Package des implements the discrete-event simulation kernel: a
// deterministic event queue keyed by simulation time with stable
// tie-breaking, and a clock that dispatches events in order.
//
// The paper's evaluation (§5) is produced by "a discrete-event simulation in
// C/C++"; this package is a general-purpose Go kernel of that kind, with
// handler callbacks, cancellation and priorities.
//
// The simulation engine (internal/sim) does not use it: each of the
// engine's event streams has a structure of its own, and its one priority
// queue, the deadline checks, is a typed heap of values in the engine. The
// kernel is kept as a standalone component with its own tests.
//
// The kernel recycles Event structs through an internal free list, so a
// steady-state simulation allocates nothing per event. The pooling
// contract: an *Event handle returned by At/AtArg/After is valid only
// until the event fires or its cancellation is collected — holders must drop
// the pointer once the event has been dispatched. Cancel remains safe on
// live handles; retaining a handle past dispatch and cancelling it later
// would cancel an unrelated recycled event.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Handler is the callback invoked when an event fires. now is the event's
// timestamp, which equals the kernel clock at dispatch.
type Handler func(now float64)

// ArgHandler is a handler that receives an opaque argument alongside the
// timestamp. Scheduling with AtArg lets callers reuse one long-lived
// function value for many events instead of allocating a closure per event
// (the allocation profile of a 10⁴-unit run is dominated by exactly those
// closures otherwise).
type ArgHandler func(now float64, arg any)

// Event is a scheduled occurrence. Events are ordered by (Time, Priority,
// insertion sequence); the sequence number makes dispatch order fully
// deterministic even for simultaneous events with equal priority.
//
// Events are pooled: see the package comment for the retention contract.
type Event struct {
	Time     float64
	Priority int // lower fires first among equal times
	Label    string
	Handler  Handler

	argFn ArgHandler
	arg   any

	seq       uint64
	index     int // heap index; -1 when not queued
	cancelled bool
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

// eventHeap is a min-heap over (Time, Priority, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel is the simulation clock and event queue. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     float64
	queue   eventHeap
	nextSeq uint64
	steps   uint64
	free    []*Event // recycled Event structs
}

// NewKernel returns a kernel with the clock at 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() float64 { return k.now }

// Steps returns the number of events dispatched so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of queued (non-cancelled) events.
func (k *Kernel) Pending() int {
	n := 0
	for _, e := range k.queue {
		if !e.cancelled {
			n++
		}
	}
	return n
}

// alloc returns a zeroed event, reusing a recycled one when available.
func (k *Kernel) alloc() *Event {
	n := len(k.free)
	if n == 0 {
		return &Event{}
	}
	e := k.free[n-1]
	k.free[n-1] = nil
	k.free = k.free[:n-1]
	return e
}

// recycle clears an event (dropping its handler, argument and label
// references) and returns it to the free list.
func (k *Kernel) recycle(e *Event) {
	*e = Event{index: -1}
	k.free = append(k.free, e)
}

// At schedules handler to fire at absolute time t with the given priority.
// Scheduling in the past (t < Now) panics: it would silently corrupt
// causality, which in a simulator is always a bug upstream.
func (k *Kernel) At(t float64, priority int, label string, handler Handler) *Event {
	e := k.schedule(t, priority, label)
	e.Handler = handler
	return e
}

// AtArg schedules fn(t, arg) to fire at absolute time t. The function value
// can be shared across many events; arg carries the per-event state (a
// pointer stored in an interface does not allocate).
func (k *Kernel) AtArg(t float64, priority int, label string, fn ArgHandler, arg any) *Event {
	e := k.schedule(t, priority, label)
	e.argFn = fn
	e.arg = arg
	return e
}

func (k *Kernel) schedule(t float64, priority int, label string) *Event {
	if math.IsNaN(t) {
		panic("des: scheduling event at NaN time")
	}
	if t < k.now {
		panic(fmt.Sprintf("des: scheduling %q at t=%v before now=%v", label, t, k.now))
	}
	e := k.alloc()
	e.Time = t
	e.Priority = priority
	e.Label = label
	e.seq = k.nextSeq
	e.index = -1
	k.nextSeq++
	heap.Push(&k.queue, e)
	return e
}

// After schedules handler to fire delay time units from now.
func (k *Kernel) After(delay float64, priority int, label string, handler Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v for %q", delay, label))
	}
	return k.At(k.now+delay, priority, label, handler)
}

// Cancel marks an event so it will be skipped at dispatch. Cancelling an
// already-cancelled event is a no-op. Cancelling an event that has already
// fired is undefined under pooling — drop handles at dispatch (see the
// package comment).
func (k *Kernel) Cancel(e *Event) {
	if e == nil {
		return
	}
	e.cancelled = true
}

// PeekTime returns the timestamp of the next non-cancelled event and true,
// or (0, false) when the queue is drained.
func (k *Kernel) PeekTime() (float64, bool) {
	k.dropCancelled()
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].Time, true
}

func (k *Kernel) dropCancelled() {
	for len(k.queue) > 0 && k.queue[0].cancelled {
		k.recycle(heap.Pop(&k.queue).(*Event))
	}
}

// Step dispatches the next event. It returns false when no events remain.
func (k *Kernel) Step() bool {
	k.dropCancelled()
	if len(k.queue) == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*Event)
	if e.Time < k.now {
		panic(fmt.Sprintf("des: time went backwards: event %q at %v, now %v", e.Label, e.Time, k.now))
	}
	k.now = e.Time
	k.steps++
	// Copy what the dispatch needs, then recycle before invoking: the
	// handler may schedule new events, and the freshest free-list entry is
	// the most cache-warm one to hand back.
	h, af, a := e.Handler, e.argFn, e.arg
	k.recycle(e)
	if af != nil {
		af(k.now, a)
	} else if h != nil {
		h(k.now)
	}
	return true
}

// RunUntil dispatches events until the clock would pass horizon or the
// queue drains. Events exactly at the horizon are dispatched. On return the
// clock is advanced to horizon if it had not reached it.
func (k *Kernel) RunUntil(horizon float64) {
	for {
		t, ok := k.PeekTime()
		if !ok || t > horizon {
			break
		}
		k.Step()
	}
	if k.now < horizon {
		k.now = horizon
	}
}

// Run dispatches all remaining events.
func (k *Kernel) Run() {
	for k.Step() {
	}
}
