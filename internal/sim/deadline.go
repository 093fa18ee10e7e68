package sim

import "github.com/eadvfs/eadvfs/internal/task"

// deadlineCheck is one pending deadline check: the job, its absolute
// deadline t, and seq, the order in which the check was scheduled.
type deadlineCheck struct {
	t   float64
	seq uint64
	job *task.Job
}

// before orders checks by (t, seq). Every deadline check shares one
// dispatch priority, so this is the (time, priority, insertion) order of a
// single event queue, restricted to deadline checks.
func (c *deadlineCheck) before(o *deadlineCheck) bool {
	return c.t < o.t || (c.t == o.t && c.seq < o.seq)
}

// deadlineHeap is a binary min-heap of deadline checks, held by value: the
// head's time is read with no pointer chase, and a push or pop moves
// entries within one array. The engine keeps its backing array across
// runs (Arena.Run).
type deadlineHeap []deadlineCheck

// push queues c.
func (h *deadlineHeap) push(c deadlineCheck) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = c
	*h = s
}

// pop removes the earliest check and returns its job. The heap must not be
// empty. The vacated slot is zeroed, so the array pins no dispatched job.
func (h *deadlineHeap) pop() *task.Job {
	s := *h
	j := s[0].job
	n := len(s) - 1
	last := s[n]
	s[n] = deadlineCheck{}
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && s[r].before(&s[c]) {
				c = r
			}
			if !s[c].before(&last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return j
}
