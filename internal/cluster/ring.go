package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ringVnodes is the number of virtual nodes each worker contributes to
// the hash ring. 64 keeps the worst-case load imbalance across a
// handful of workers in the few-percent range while the ring stays
// small enough to rebuild on every topology change.
const ringVnodes = 64

// ring consistent-hashes persist keys over a set of workers. Points
// hash to the first vnode clockwise from the key; owners() walks on to
// further distinct workers, giving every key a stable failover chain —
// adding or removing one worker remaps only the keys that hashed to
// it, so a cluster resize keeps most of every worker's warm store
// relevant.
type ring struct {
	vnodes  []ringVnode // sorted by hash
	workers []string
}

type ringVnode struct {
	hash   uint64
	worker int // index into workers
}

// newRing builds the ring over the workers in the given order. The
// worker list must be non-empty and duplicate-free.
func newRing(workers []string) (*ring, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("ring: no workers")
	}
	seen := make(map[string]bool, len(workers))
	r := &ring{
		vnodes:  make([]ringVnode, 0, len(workers)*ringVnodes),
		workers: append([]string(nil), workers...),
	}
	for wi, w := range workers {
		if seen[w] {
			return nil, fmt.Errorf("ring: duplicate worker %q", w)
		}
		seen[w] = true
		for v := 0; v < ringVnodes; v++ {
			r.vnodes = append(r.vnodes, ringVnode{hash: ringHash(fmt.Sprintf("%s#%d", w, v)), worker: wi})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.worker < b.worker // deterministic order on (vanishingly rare) hash ties
	})
	return r, nil
}

// ringHash positions a string on the ring. SHA-256 (truncated) rather
// than a fast non-cryptographic hash: vnode keys differ only in a
// short suffix, and weaker hashes measurably skew the ring for exactly
// that shape of input. One hash per lookup is nothing next to a
// simulation.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// owners returns the key's failover chain: every worker, deduplicated,
// in ring order starting from the key's position. owners(key)[0] is the
// key's home; retries walk the tail.
func (r *ring) owners(key string) []string {
	start := sort.Search(len(r.vnodes), func(i int) bool {
		return r.vnodes[i].hash >= ringHash(key)
	})
	out := make([]string, 0, len(r.workers))
	used := make([]bool, len(r.workers))
	for i := 0; i < len(r.vnodes) && len(out) < len(r.workers); i++ {
		vn := r.vnodes[(start+i)%len(r.vnodes)]
		if !used[vn.worker] {
			used[vn.worker] = true
			out = append(out, r.workers[vn.worker])
		}
	}
	return out
}
