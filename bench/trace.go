package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/stack"
)

// Span names. Every layer span is a child of the file span, and the
// file's index in the round is the trace id.
const (
	spanFile       = "file"
	spanPreprocess = "cc.preprocess"
	spanParse      = "cc.parse"
	spanTypecheck  = "cc.typecheck"
	spanBuild      = "ir.build"
	spanInline     = "ir.inline"
	spanTwin       = "trace.twin" // a second ir.Build + inline, only to time SSA
	spanSSA        = "ir.ssa"
	spanCheck      = "core.check"
)

// span is one timed call into a layer, timed from outside the layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (never 0, which means "no
// parent").
func (t *tracer) begin(name string, trace, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.dur() - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// layerCounts are the work counts a traced round measures where the
// work happens.
type layerCounts struct {
	files       int
	tokens      int
	values      int // IR values after ir.Build and inlining
	valuesAfter int // IR values after the SSA passes
	stats       core.Stats
}

func (c *layerCounts) add(o layerCounts) {
	c.files += o.files
	c.tokens += o.tokens
	c.values += o.values
	c.valuesAfter += o.valuesAfter
	c.stats.Add(o.stats)
}

func countValues(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Values())
		}
	}
	return n
}

// tracedRound analyzes every source once on two goroutines with
// the shipped options, calling each layer's public functions itself so
// that it can time them. The inliner runs here, and the checker runs
// with Inline off, which is the same work CheckProgram does with it on.
// The SSA passes run inside CheckProgram, out of reach, so a twin of the
// program is built and put through them to time them; the twin counts
// as tracing overhead. Trace ids are traceBase + the source's index.
func tracedRound(ctx context.Context, srcs []stack.Source, tr *tracer, traceBase int) ([][]finding, layerCounts, error) {
	opts := core.DefaultOptions
	opts.Inline = false
	files := make([][]finding, len(srcs))
	perWorker := make([]layerCounts, workers)
	checkers := make([]*core.Checker, workers)
	for w := range checkers {
		checkers[w] = core.New(opts)
	}
	err := forEach(len(srcs), workers, func(w, i int) error {
		fs, err := traceFile(ctx, checkers[w], srcs[i], tr, traceBase+i, &perWorker[w])
		files[i] = fs
		return err
	})
	var total layerCounts
	for w := range perWorker {
		perWorker[w].stats = checkers[w].Stats()
		total.add(perWorker[w])
	}
	return files, total, err
}

// forEach calls fn for every index below n on `workers` goroutines,
// each index once, and returns the first error in index order. A worker
// that fails skips the indices it is handed afterwards.
func forEach(n, workers int, fn func(worker, i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for i := range next {
				if !failed {
					errs[i] = fn(w, i)
					failed = errs[i] != nil
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func traceFile(ctx context.Context, checker *core.Checker, src stack.Source, tr *tracer, id int, lc *layerCounts) ([]finding, error) {
	root := tr.begin(spanFile, id, 0)
	defer tr.end(root)
	layer := func(name string, call func() error) error {
		s := tr.begin(name, id, root)
		defer tr.end(s)
		return call()
	}

	var toks []cc.Token
	var file *cc.File
	var prog, twin *ir.Program
	var reports []*core.Report
	err := layer(spanPreprocess, func() (err error) {
		toks, err = cc.NewPreprocessor().Preprocess(src.Name, src.Text)
		return err
	})
	if err == nil {
		err = layer(spanParse, func() (err error) { file, err = cc.ParseTokens(src.Name, toks); return err })
	}
	if err == nil {
		err = layer(spanTypecheck, func() error { return cc.Check(file) })
	}
	if err == nil {
		err = layer(spanBuild, func() (err error) { prog, err = ir.Build(file); return err })
	}
	if err == nil {
		err = layer(spanInline, func() error { ir.InlineProgram(prog, ir.DefaultInlineOptions); return nil })
	}
	if err == nil {
		err = layer(spanTwin, func() (err error) {
			if twin, err = ir.Build(file); err == nil {
				ir.InlineProgram(twin, ir.DefaultInlineOptions)
			}
			return err
		})
	}
	if err == nil {
		err = layer(spanSSA, func() error {
			for _, f := range twin.Funcs {
				ir.RunSSAPasses(f, ir.ComputeDom(f))
			}
			return nil
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.Name, err)
	}
	lc.files++
	lc.tokens += len(toks)
	lc.values += countValues(prog)
	lc.valuesAfter += countValues(twin)
	if err := layer(spanCheck, func() (err error) { reports, err = checker.CheckProgram(ctx, prog); return err }); err != nil {
		return nil, fmt.Errorf("%s: %w", src.Name, err)
	}
	return findingsOfReports(reports), nil
}
