// Package emit provides the deterministic in-order emitter shared by
// every streaming surface of the checker: the one in-process worker
// pool (corpus.Sweeper.Check), which serves the archive sweep and the
// batch API (stack.CheckSources) alike, and the sharded dispatcher
// (stack/shard), which re-sequences replica streams. It exists so the admission-window + pending-map machinery
// is implemented exactly once; before this package, corpus and stack
// each hand-rolled a copy.
//
// The protocol has three moves:
//
//	producer side                emitter side
//	-------------                ------------
//	Admit(stop)  — reserve a     deliver(idx, v) runs on one
//	  window slot for one          goroutine, in strictly
//	  upcoming result              increasing idx order with no
//	Put(idx, v)  — hand over       gaps; each delivery releases
//	  the finished result          the result's window slot
//	Close()      — no more Puts;
//	  drain and stop
//
// The admission window is what makes the O(window) memory claim true
// rather than merely likely: at most `window` results can sit between
// Admit and delivery — even when one pathological item stalls while
// every other producer races ahead — because a slot frees only when
// its result is delivered in order. A Put preceded by Admit therefore
// never blocks (the internal channel holds the whole window), so
// producers only ever wait in Admit; backpressure from a slow deliver
// callback propagates through slot starvation, not buffer growth.
//
// Error/cancel drain semantics: when a producer fails, indices it
// admitted but never Put leave a gap in the sequence. Delivery stalls
// at the first gap — later results are held, never delivered out of
// order — and Close discards them, so a shut-down pipeline drains
// without deadlock and callers observe a clean prefix of the stream.
package emit

// Ordered re-sequences index-tagged results produced concurrently and
// out of order into a single strictly-increasing delivery stream with
// at most `window` results buffered. The zero value is not usable;
// construct with NewOrdered.
type Ordered[T any] struct {
	window  chan struct{}
	results chan indexed[T]
	done    chan struct{}
	deliver func(idx int, v T)
}

type indexed[T any] struct {
	idx int
	v   T
}

// NewOrdered returns an emitter delivering results for indices
// 0, 1, 2, ... through deliver, which runs on the emitter's own
// goroutine — deliveries never race each other and arrive in strictly
// increasing index order. window (> 0) bounds the results buffered
// between Admit and delivery.
func NewOrdered[T any](window int, deliver func(idx int, v T)) *Ordered[T] {
	if window <= 0 {
		panic("emit: NewOrdered window must be > 0")
	}
	o := &Ordered[T]{
		window:  make(chan struct{}, window),
		results: make(chan indexed[T], window),
		done:    make(chan struct{}),
		deliver: deliver,
	}
	go o.run()
	return o
}

func (o *Ordered[T]) run() {
	defer close(o.done)
	next := 0
	pending := make(map[int]indexed[T])
	for r := range o.results {
		pending[r.idx] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			o.deliver(cur.idx, cur.v)
			next++
			<-o.window
		}
	}
}

// Admit reserves a window slot for one upcoming result, blocking while
// the window is full. It returns false — without reserving — once stop
// is closed, so a failing pipeline can unwind producers that would
// otherwise wait on slots a vanished result will never free. A nil
// stop waits indefinitely.
func (o *Ordered[T]) Admit(stop <-chan struct{}) bool {
	if stop == nil {
		o.window <- struct{}{}
		return true
	}
	select {
	case o.window <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

// Put hands index idx's finished result to the emitter. Every Put must
// be covered by a prior successful Admit (one slot per result, in any
// producer); under that discipline Put never blocks. Each index must
// be Put at most once.
func (o *Ordered[T]) Put(idx int, v T) {
	o.results <- indexed[T]{idx, v}
}

// Close signals that no more results will arrive, waits until every
// deliverable result has been delivered, and discards results stranded
// behind a gap (an admitted index that was never Put). No Admit or Put
// may follow Close.
func (o *Ordered[T]) Close() {
	close(o.results)
	<-o.done
}
