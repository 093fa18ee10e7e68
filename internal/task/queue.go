package task

// ReadyQueue is the EDF-ordered set of released, unfinished jobs — the
// paper's queue Q ("maintain a task queue Q containing all ready but not
// finished tasks", Fig. 4 line 1). The earliest-deadline job is always at
// the head; ordering is the total order of EarlierDeadline.
//
// The queue is a binary min-heap over h, sifted directly with
// EarlierDeadline. Jobs track their own heap position, so Remove is
// O(log n) instead of a linear scan; a job can therefore sit in at most
// one ReadyQueue at a time (the engine's model — each run owns its jobs).
type ReadyQueue struct {
	h []*Job
}

// NewReadyQueue returns an empty queue.
func NewReadyQueue() *ReadyQueue { return &ReadyQueue{} }

// Len returns the number of queued jobs.
func (q *ReadyQueue) Len() int { return len(q.h) }

// Reset empties the queue in O(n) without heap sifting, restoring every
// queued job's not-queued marker and dropping the job references so a
// pooled queue (internal/sim's run arenas) does not pin a finished run's
// jobs. The backing array is retained, so steady-state reuse never
// reallocates.
func (q *ReadyQueue) Reset() {
	for i, j := range q.h {
		j.heapIndex = -1
		q.h[i] = nil
	}
	q.h = q.h[:0]
}

// Push adds a released job.
func (q *ReadyQueue) Push(j *Job) {
	if j == nil {
		panic("task: pushing nil job")
	}
	j.heapIndex = len(q.h)
	q.h = append(q.h, j)
	q.up(j.heapIndex)
}

// Peek returns the earliest-deadline job without removing it, or nil.
func (q *ReadyQueue) Peek() *Job {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Pop removes and returns the earliest-deadline job, or nil.
func (q *ReadyQueue) Pop() *Job {
	if len(q.h) == 0 {
		return nil
	}
	return q.take(0)
}

// Remove deletes a specific job (e.g. dropped at its deadline) in O(log n)
// using the job's recorded heap position. It reports whether the job was
// present.
func (q *ReadyQueue) Remove(j *Job) bool {
	i := j.heapIndex
	if i < 0 || i >= len(q.h) || q.h[i] != j {
		return false
	}
	q.take(i)
	return true
}

// take removes and returns the job at heap position i: the last job fills
// the hole and sifts down, or up when it is earlier than the hole's parent.
func (q *ReadyQueue) take(i int) *Job {
	j := q.h[i]
	n := len(q.h) - 1
	if i != n {
		q.h[i] = q.h[n]
		if !q.down(i, n) {
			q.up(i)
		}
	}
	q.h[n] = nil
	q.h = q.h[:n]
	j.heapIndex = -1
	return j
}

// up moves the job at position i toward the root past every later parent.
func (q *ReadyQueue) up(i int) {
	h := q.h
	j := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !EarlierDeadline(j, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heapIndex = i
		i = p
	}
	h[i] = j
	j.heapIndex = i
}

// down moves the job at position i0 toward the leaves of h[:n] past every
// earlier child, and reports whether it moved.
func (q *ReadyQueue) down(i0, n int) bool {
	h := q.h
	j := h[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && EarlierDeadline(h[r], h[c]) {
			c = r
		}
		if !EarlierDeadline(h[c], j) {
			break
		}
		h[i] = h[c]
		h[i].heapIndex = i
		i = c
	}
	h[i] = j
	j.heapIndex = i
	return i > i0
}
