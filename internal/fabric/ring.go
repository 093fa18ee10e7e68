package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the worker pool. Shards are placed
// by their request digest, so a given shard request always prefers the
// same owning worker: repeat and retried sweeps land on the node whose
// single-flight cache already holds (or is computing) that digest, and
// adding or removing one worker reassigns only the shards on its arcs.
// Each worker contributes pointsPerWorker virtual points to smooth the
// split.
type ring struct {
	points  []ringPoint
	workers int
}

type ringPoint struct {
	hash   uint64
	worker int
}

// pointsPerWorker is the number of virtual points per worker.
const pointsPerWorker = 64

func newRing(workers []string) *ring {
	r := &ring{
		points:  make([]ringPoint, 0, len(workers)*pointsPerWorker),
		workers: len(workers),
	}
	for wi, w := range workers {
		for v := 0; v < pointsPerWorker; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s\x00%d", w, v)), worker: wi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// sequence returns every worker index exactly once, ordered by ring
// position starting at key's owner: sequence(key)[0] owns the key, and
// each later entry is the natural fallback when its predecessors are
// unavailable — the same order a replica placement would use, so retries
// and hedges reroute deterministically.
func (r *ring) sequence(key string) []int {
	if r.workers == 0 {
		return nil
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	seen := make([]bool, r.workers)
	seq := make([]int, 0, r.workers)
	for n := 0; n < len(r.points) && len(seq) < r.workers; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			seq = append(seq, p.worker)
		}
	}
	return seq
}
