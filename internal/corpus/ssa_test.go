package corpus

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestSSAVsLegacyByteIdentity is the differential gate for the SSA
// pass stack, which is on by default since the global analysis suite
// landed: with Options.SSA the sweep must produce byte-identical
// reports — same files, same lines, same algorithms, same minimal UB
// sets — and identical verdict counts, across worker counts, versus the
// SSA-off legacy reference. The SSA passes may only change how much
// work the solver does (fewer blasted terms, skipped queries, more
// cache hits), never what the checker says.
func TestSSAVsLegacyByteIdentity(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 24, FilesPerPackage: 2, FuncsPerFile: 5,
		UnstableFraction: 0.5, Seed: 99,
	}
	pkgs := GenerateArchive(cfg)

	legacy, err := (&Sweeper{Options: sweepOpts(), Workers: 1}).Run(context.Background(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Reports == 0 {
		t.Fatal("archive produced no reports; test is vacuous")
	}
	legacyLog := reportLogLines(legacy)

	ssaOpts := sweepOpts()
	ssaOpts.SSA = true
	sawSCCP := false
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d/streaming", workers), func(t *testing.T) {
			ssa, err := (&Sweeper{Options: ssaOpts, Workers: workers}).Run(context.Background(), pkgs)
			if err != nil {
				t.Fatal(err)
			}
			type verdicts struct {
				Packages, PackagesWithReports, Files, Functions, Reports int
				Elimination, BoolOracle, AlgebraOracle, SingleCondSets   int
			}
			v := func(r *SweepResult) verdicts {
				return verdicts{
					r.Packages, r.PackagesWithReports, r.Files, r.Functions, r.Reports,
					r.ReportsByAlgo[core.AlgoElimination],
					r.ReportsByAlgo[core.AlgoSimplifyBool],
					r.ReportsByAlgo[core.AlgoSimplifyAlgebra],
					r.MinSetHistogram[1],
				}
			}
			if v(ssa) != v(legacy) {
				t.Errorf("verdict counts differ:\n legacy: %+v\n ssa:    %+v", v(legacy), v(ssa))
			}
			if log := reportLogLines(ssa); log != legacyLog {
				t.Errorf("report logs differ:\n--- legacy\n%s--- ssa workers=%d\n%s", legacyLog, workers, log)
			}
			if ssa.Stats.SCCPFoldedValues > 0 {
				sawSCCP = true
			}
		})
	}
	if !sawSCCP {
		t.Error("SSA sweeps folded no values; the differential gate is not exercising the passes")
	}
}

// TestSSASweepDoesLessSolverWork: on the same archive, SSA must
// strictly reduce the terms the solver blasts — that is the point of
// promoting loads into shared SSA values — while keeping every
// verdict (checked byte-for-byte above).
func TestSSASweepDoesLessSolverWork(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 12, FilesPerPackage: 2, FuncsPerFile: 5,
		UnstableFraction: 0.5, Seed: 7,
	}
	pkgs := GenerateArchive(cfg)

	legacy, err := Sweep(context.Background(), pkgs, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	ssaOpts := sweepOpts()
	ssaOpts.SSA = true
	ssa, err := Sweep(context.Background(), pkgs, ssaOpts)
	if err != nil {
		t.Fatal(err)
	}
	if ssa.Stats.TermsBlasted > legacy.Stats.TermsBlasted {
		t.Errorf("TermsBlasted rose under SSA: legacy %d, ssa %d", legacy.Stats.TermsBlasted, ssa.Stats.TermsBlasted)
	}
}
