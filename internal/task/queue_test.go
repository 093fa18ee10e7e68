package task

import (
	"testing"
	"testing/quick"
)

func TestQueueEDFOrder(t *testing.T) {
	q := NewReadyQueue()
	j1 := NewJob(0, 0, 0, 30, 1)
	j2 := NewJob(1, 0, 0, 10, 1)
	j3 := NewJob(2, 0, 0, 20, 1)
	q.Push(j1)
	q.Push(j2)
	q.Push(j3)
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	if got := q.Pop(); got != j2 {
		t.Fatalf("first pop = task %d, want 1", got.TaskID)
	}
	if got := q.Pop(); got != j3 {
		t.Fatalf("second pop = task %d, want 2", got.TaskID)
	}
	if got := q.Pop(); got != j1 {
		t.Fatalf("third pop = task %d, want 0", got.TaskID)
	}
	if q.Pop() != nil {
		t.Fatal("pop from empty queue returned a job")
	}
}

func TestQueuePeekDoesNotRemove(t *testing.T) {
	q := NewReadyQueue()
	j := NewJob(0, 0, 0, 10, 1)
	q.Push(j)
	if q.Peek() != j || q.Len() != 1 {
		t.Fatal("peek removed or missed the job")
	}
}

func TestQueuePeekEmpty(t *testing.T) {
	if NewReadyQueue().Peek() != nil {
		t.Fatal("peek on empty queue returned a job")
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewReadyQueue()
	j1 := NewJob(0, 0, 0, 10, 1)
	j2 := NewJob(1, 0, 0, 20, 1)
	j3 := NewJob(2, 0, 0, 30, 1)
	q.Push(j1)
	q.Push(j2)
	q.Push(j3)
	if !q.Remove(j2) {
		t.Fatal("Remove failed on present job")
	}
	if q.Remove(j2) {
		t.Fatal("Remove succeeded on absent job")
	}
	if q.Len() != 2 || q.Peek() != j1 {
		t.Fatal("queue corrupted after remove")
	}
	if q.Pop() != j1 || q.Pop() != j3 {
		t.Fatal("EDF order broken after remove")
	}
}

func TestQueuePushNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Push(nil) did not panic")
		}
	}()
	NewReadyQueue().Push(nil)
}

// TestQueueRemoveHeadTailMiddle removes from every heap position class
// and checks the head invariant each time; a removed job can be pushed
// back (its recorded position is reset on removal).
func TestQueueRemoveHeadTailMiddle(t *testing.T) {
	mk := func() (*ReadyQueue, []*Job) {
		q := NewReadyQueue()
		var js []*Job
		for i, d := range []float64{10, 20, 30, 40, 50} {
			j := NewJob(i, 0, 0, d, 1)
			q.Push(j)
			js = append(js, j)
		}
		return q, js
	}
	for name, pick := range map[string]int{"head": 0, "middle": 2, "tail": 4} {
		q, js := mk()
		if !q.Remove(js[pick]) {
			t.Fatalf("%s: Remove failed", name)
		}
		prev := q.Pop()
		for q.Len() > 0 {
			next := q.Pop()
			if EarlierDeadline(next, prev) {
				t.Fatalf("%s: EDF order broken after Remove", name)
			}
			prev = next
		}
	}
	q, js := mk()
	q.Remove(js[1])
	q.Push(js[1]) // re-admission after removal must work
	if q.Len() != 5 || q.Peek() != js[0] {
		t.Fatal("queue corrupted by remove + re-push")
	}
}

// Property: under arbitrary interleavings of Push, Remove and Pop, the
// queue drains in EDF total order and Remove agrees with membership.
// This is the regression guard for the O(log n) positional Remove: the
// seed implementation re-heapified around a linear scan, and a stale
// heapIndex would surface here as a misordered pop or a false Remove.
func TestQueueRemoveProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 150 {
			raw = raw[:150]
		}
		q := NewReadyQueue()
		in := map[*Job]bool{}
		var all []*Job
		for i, v := range raw {
			switch v % 4 {
			case 0, 1: // push a fresh job
				j := NewJob(i, 0, float64(v%50), 1+float64(v/50%40), 0.5)
				q.Push(j)
				in[j] = true
				all = append(all, j)
			case 2: // remove an arbitrary job (possibly already gone)
				if len(all) == 0 {
					continue
				}
				j := all[int(v)%len(all)]
				if got := q.Remove(j); got != in[j] {
					return false
				}
				delete(in, j)
			case 3: // pop the head
				j := q.Pop()
				if (j == nil) != (len(in) == 0) {
					return false
				}
				delete(in, j)
			}
			if q.Len() != len(in) {
				return false
			}
		}
		prev := q.Pop()
		for q.Len() > 0 {
			next := q.Pop()
			if EarlierDeadline(next, prev) {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: popping the whole queue always yields jobs in EDF total order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 100 {
			raw = raw[:100]
		}
		q := NewReadyQueue()
		for i, v := range raw {
			a := float64(v % 50)
			d := 1 + float64(v/50%40)
			q.Push(NewJob(i, 0, a, d, 0.5))
		}
		prev := q.Pop()
		for q.Len() > 0 {
			next := q.Pop()
			if EarlierDeadline(next, prev) {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
