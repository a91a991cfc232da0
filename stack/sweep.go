package stack

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// Package is one archive package for Sweep: a name and its C source
// files.
type Package struct {
	Name  string
	Files []string
}

// SweepResult summarizes a whole-archive run: the quantities of the
// paper's Figures 16–18 evaluation. Everything except the timing
// fields is deterministic — byte-identical for any worker count.
type SweepResult struct {
	Packages            int   `json:"packages"`
	PackagesWithReports int   `json:"packagesWithReports"`
	Files               int   `json:"files"`
	Functions           int   `json:"functions"`
	Reports             int   `json:"reports"`
	Queries             int64 `json:"queries"`
	Timeouts            int64 `json:"timeouts"`
	// CacheResultHits / CacheResultMisses count files answered whole
	// from the WithCache result cache versus analyzed for real; both
	// are zero without a cache. They are operational counters, not
	// analysis results, so Format() omits them and the text block stays
	// byte-identical between cold and warm runs.
	CacheResultHits   int64 `json:"cacheResultHits,omitempty"`
	CacheResultMisses int64 `json:"cacheResultMisses,omitempty"`
	// BuildTime and AnalysisTime are wall-clock sums over workers.
	BuildTime    time.Duration `json:"buildTimeNs"`
	AnalysisTime time.Duration `json:"analysisTimeNs"`

	inner *corpus.SweepResult
}

// Format renders the sweep in the style of the paper's §6.5 figures —
// the classic summary block the sweep CLI prints.
func (r *SweepResult) Format() string { return r.inner.Format() }

// Sweep runs the checker over every package on the worker pool that
// CheckSources uses. If sink is non-nil, each file's result is
// delivered to it in archive order as soon as the file and every
// earlier one have finished (the streaming emitter; O(Workers) results
// buffered), and the sink is Closed before Sweep returns. A sink error
// stops the pool and is returned.
//
// Cancelling ctx shuts the pool down without deadlock — in-flight
// solver queries return within one check interval — and Sweep returns
// ctx's error.
func (a *Analyzer) Sweep(ctx context.Context, pkgs []Package, sink Sink) (*SweepResult, error) {
	cps := make([]corpus.Package, len(pkgs))
	for i, p := range pkgs {
		cps[i] = corpus.Package{Name: p.Name, Files: p.Files}
	}
	var emit func(corpus.FileResult) error
	if sink != nil {
		emit = func(fr corpus.FileResult) error { return sink.Emit(fileResultOf(fr)) }
	}
	res, err := a.sw.Stream(ctx, cps, emit)
	if sink != nil {
		// The sink is closed on every path — flushing formats that
		// buffer (SARIF) on success, releasing resources on failure —
		// with the first error winning.
		if closeErr := sink.Close(); err == nil {
			err = closeErr
		}
	}
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Packages:            res.Packages,
		PackagesWithReports: res.PackagesWithReports,
		Files:               res.Files,
		Functions:           res.Functions,
		Reports:             res.Reports,
		Queries:             res.Stats.Queries,
		Timeouts:            res.Stats.Timeouts,
		CacheResultHits:     res.Stats.CacheResultHits,
		CacheResultMisses:   res.Stats.CacheResultMisses,
		BuildTime:           res.BuildTime,
		AnalysisTime:        res.AnalysisTime,
		inner:               res,
	}, nil
}

// fileResultOf converts one internal per-file result, including its
// reports, into the public form.
func fileResultOf(fr corpus.FileResult) FileResult {
	return FileResult{
		Index:        fr.Index,
		Package:      fr.Package,
		File:         fr.File,
		Functions:    fr.Functions,
		Diagnostics:  diagnosticsOf(fr.Reports),
		BuildTime:    fr.BuildTime,
		AnalysisTime: fr.AnalysisTime,
	}
}

// coreOptions exposes the analyzer's checker options to tests that
// drive the internal sweeper directly for byte-identity comparisons.
func (a *Analyzer) coreOptions() core.Options { return a.sw.Options }
