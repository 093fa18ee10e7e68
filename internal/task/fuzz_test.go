package task

import (
	"testing"
)

// FuzzReadyQueue drives the EDF queue through fuzzer-chosen
// push/pop/remove interleavings and checks the heap never yields jobs out
// of EDF order and never loses or duplicates a job. After every operation
// the whole heap is checked: no child is earlier than its parent, every
// queued job records its own position, and every job out of the queue
// records -1.
func FuzzReadyQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1})
	f.Add([]byte{0, 0, 0, 2, 2, 2, 1, 1, 1})
	// Deadlines 47 45 75 81 37 15 31 build the heap [15 45 31 81 47 75 37];
	// removing 47 (position 4) moves 37 into its place, where it must sift
	// up past its new parent 45.
	f.Add([]byte{243, 132, 147, 195, 63, 207, 15, 203})
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := NewReadyQueue()
		live := map[*Job]bool{}
		var handles []*Job
		seq := 0
		if len(ops) > 400 {
			ops = ops[:400]
		}
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				j := NewJob(int(op), seq, float64(op%50), 1+float64(op%40), 0.5)
				seq++
				q.Push(j)
				live[j] = true
				handles = append(handles, j)
			case 1: // pop
				j := q.Pop()
				if j == nil {
					if len(live) != 0 {
						t.Fatalf("pop returned nil with %d live jobs", len(live))
					}
					continue
				}
				if !live[j] {
					t.Fatal("popped a job not in the live set")
				}
				delete(live, j)
				// EDF property: nothing remaining is strictly earlier.
				if h := q.Peek(); h != nil && EarlierDeadline(h, j) {
					t.Fatal("pop violated EDF order")
				}
			case 2: // remove a specific job
				if len(handles) == 0 {
					continue
				}
				victim := handles[int(op)%len(handles)]
				removed := q.Remove(victim)
				if removed != live[victim] {
					t.Fatalf("Remove reported %v for live=%v", removed, live[victim])
				}
				delete(live, victim)
			}
			if q.Len() != len(live) {
				t.Fatalf("queue length %d != live set %d", q.Len(), len(live))
			}
			checkHeap(t, q, handles, live)
		}
		// Drain: strictly non-decreasing EDF order and full accounting.
		var prev *Job
		for q.Len() > 0 {
			j := q.Pop()
			if prev != nil && EarlierDeadline(j, prev) {
				t.Fatal("drain violated EDF order")
			}
			if !live[j] {
				t.Fatal("drained a dead job")
			}
			delete(live, j)
			prev = j
		}
		if len(live) != 0 {
			t.Fatalf("%d jobs lost", len(live))
		}
	})
}

// checkHeap verifies the queue's heap invariant and position bookkeeping
// against the live set.
func checkHeap(t *testing.T, q *ReadyQueue, handles []*Job, live map[*Job]bool) {
	t.Helper()
	for i, j := range q.h {
		if i > 0 && EarlierDeadline(j, q.h[(i-1)/2]) {
			t.Fatalf("position %d is earlier than its parent %d", i, (i-1)/2)
		}
		if j.heapIndex != i {
			t.Fatalf("job at position %d records heap index %d", i, j.heapIndex)
		}
	}
	for _, j := range handles {
		if !live[j] && j.heapIndex != -1 {
			t.Fatalf("job %d/%d is out of the queue but records heap index %d", j.TaskID, j.Seq, j.heapIndex)
		}
	}
}
