package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed swings by up
// to 2x over minutes: the checker's rounds and its CPU time per round
// slow down together, so the CPU itself is slower, not waiting. To
// report times that do not move with the host, the benchmark runs a
// fixed reference computation between the units it measures and scales
// each unit's times by how long the reference took around it, against
// refNominal. The reference lives in the benchmark, so a change to the
// checker cannot change it.

// refNominal is the reference's duration on the reference host. Times
// the benchmark reports are as if measured there.
const refNominal = 40 * time.Millisecond

// refSink keeps the reference's results, so that none of it is dead code.
var refSink [workers]uint64

// hostRef runs the reference on the benchmark's two procs and returns
// its wall time. It collects the garbage the checker left first, so the
// reference never pays for it.
func hostRef() time.Duration {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSink[w] = refWork(int64(w))
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// slowdown is how much slower than the reference host the host was
// while a unit ran, from the references run just before and after it.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}

type refNode struct {
	l, r *refNode
	k    uint64
}

// refWork is a fixed mix of what the checker does: it allocates and
// walks a pointer tree, fills a map keyed by strings, and sorts.
func refWork(seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	var root *refNode
	for range 30000 {
		k := rng.Uint64()
		p := &root
		for *p != nil {
			if k < (*p).k {
				p = &(*p).l
			} else {
				p = &(*p).r
			}
		}
		*p = &refNode{k: k}
	}
	m := map[string]int{}
	for i := range 30000 {
		m[strconv.FormatUint(rng.Uint64(), 36)] = i
	}
	xs := make([]uint64, 60000)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	var h uint64
	var walk func(n *refNode)
	walk = func(n *refNode) {
		if n != nil {
			walk(n.l)
			h = h*31 + n.k
			walk(n.r)
		}
	}
	walk(root)
	return h + uint64(len(m)) + xs[0]
}
