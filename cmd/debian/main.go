// Command debian runs the synthetic-archive sweep that reproduces the
// paper's §6.4–6.5 evaluation — per-package build/analysis times and
// query counts (Fig. 16), reports per algorithm (Fig. 17), reports per
// UB condition (Fig. 18), and the minimal-UB-set size histogram — as a
// thin client of the public stack API.
//
// Usage:
//
//	debian [-packages N] [-files N] [-funcs N] [-seed N] [-j N]
//	       [-timeout D] [-max-conflicts N] [-perf]
//	       [-stream] [-format text|jsonl|sarif]
//	       [-remote host1,host2,...] [-auth-token T] [-fleet-status]
//
// With -perf it instead runs the three Figure 16 package profiles
// (Kerberos-, Postgres-, and Linux-sized) and prints the table rows.
// -j sets the number of sweep workers, each checking one file at a
// time (default: one per CPU). All counts and reports in the output
// are identical for any value, as long as no query hits the -timeout
// deadline (default 5s, as in the paper; see the internal/corpus
// package documentation); only the build/analysis timing line varies,
// being a wall-clock sum over workers. -max-conflicts optionally bounds per-query solver
// effort deterministically instead.
//
// -stream renders each file's results through a sink the moment the
// file (and every file before it) finishes checking — on a big archive
// results appear immediately. -format selects the sink: text (the
// classic per-file report stream, then the summary block), jsonl (one
// JSON object per file), or sarif (a SARIF 2.1.0 log on completion);
// the non-text formats keep stdout machine-consumable and print no
// summary.
//
// -remote runs the sweep against stackd replicas instead of the local
// solver: the archive's files are flattened into one batch, dealt to
// the least-loaded healthy replicas, and streamed back in archive
// order through the same sinks (requires -stream; the replicas'
// solver settings apply, and the text stream is byte-identical to a
// local -stream run — a replica dying mid-sweep is retried on the
// survivors without disturbing the stream). -auth-token sends the
// bearer token stackd -auth-token demands. The batch API carries
// per-file diagnostics only, so no summary block is printed and the
// jsonl lines omit the package/function/timing fields of a local
// sweep.
//
// -fleet-status skips the sweep entirely: every replica is probed once
// and the fleet health snapshot is printed as JSON — name, up,
// pending, transitions, lastErr per replica. The mode has its own flag
// set: only -remote (required) and -auth-token apply, and any other
// flag or argument is a usage error. Exit codes: 0 with every replica
// up, 1 with any replica down, 2 on a usage error or a failed
// probe/encoding.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/stack"
	"repro/stack/client"
	"repro/stack/shard"
)

func main() {
	// -fleet-status is its own mode with its own strict flag surface:
	// only -remote and -auth-token apply, and anything else is a usage
	// error instead of a silently ignored no-op. Handled before the
	// regular parse (shard.FleetStatus re-parses the arguments).
	if shard.HasFleetStatusFlag(os.Args[1:]) {
		os.Exit(shard.FleetStatus(os.Stdout, os.Stderr, "debian", os.Args[1:]))
	}

	common := stack.BindCommonFlags(flag.CommandLine)
	packages := flag.Int("packages", corpus.DefaultArchive.Packages, "number of packages")
	files := flag.Int("files", corpus.DefaultArchive.FilesPerPackage, "files per package")
	funcs := flag.Int("funcs", corpus.DefaultArchive.FuncsPerFile, "functions per file")
	seed := flag.Int64("seed", corpus.DefaultArchive.Seed, "generator seed")
	perf := flag.Bool("perf", false, "run the Figure 16 performance profiles")
	stream := flag.Bool("stream", false, "render per-file results through a sink as they are produced")
	format := flag.String("format", "text", "streaming sink format: text, jsonl, or sarif")
	remote := flag.String("remote", "", "comma-separated stackd replica addresses; sweep runs remotely (requires -stream)")
	authToken := flag.String("auth-token", "", "bearer token for the replicas (with -remote)")
	_ = flag.Bool("fleet-status", false, "probe the -remote fleet once and print its health as JSON (own flag set; see debian -fleet-status -h)")
	flag.Parse()
	if *stream && *perf {
		fmt.Fprintln(os.Stderr, "debian: -stream does not apply to the -perf profile table")
		os.Exit(2)
	}
	if *remote != "" && !*stream {
		fmt.Fprintln(os.Stderr, "debian: -remote requires -stream (the batch API streams per-file results; there is no local summary)")
		os.Exit(2)
	}

	az := stack.New(common.Options()...)
	ctx := context.Background()

	if *perf {
		// Three scaled package profiles standing in for Kerberos (705
		// files), Postgres (770), and the Linux kernel (14,136).
		profiles := []struct {
			name string
			cfg  corpus.ArchiveConfig
		}{
			{"kerberos-scale", corpus.ArchiveConfig{Packages: 1, FilesPerPackage: 70, FuncsPerFile: 6, UnstableFraction: 1, Seed: 1}},
			{"postgres-scale", corpus.ArchiveConfig{Packages: 1, FilesPerPackage: 77, FuncsPerFile: 6, UnstableFraction: 1, Seed: 2}},
			{"linux-scale", corpus.ArchiveConfig{Packages: 1, FilesPerPackage: 280, FuncsPerFile: 8, UnstableFraction: 1, Seed: 3}},
		}
		fmt.Printf("%-16s %12s %14s %8s %10s %10s\n",
			"package", "build time", "analysis time", "files", "queries", "timeouts")
		for _, p := range profiles {
			res, err := az.Sweep(ctx, archivePackages(p.cfg), nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "debian: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-16s %12v %14v %8d %10d %10d\n",
				p.name, res.BuildTime.Round(time.Millisecond),
				res.AnalysisTime.Round(time.Millisecond),
				res.Files, res.Queries, res.Timeouts)
		}
		return
	}

	pkgs := archivePackages(corpus.ArchiveConfig{
		Packages:         *packages,
		FilesPerPackage:  *files,
		FuncsPerFile:     *funcs,
		UnstableFraction: corpus.DefaultArchive.UnstableFraction,
		Seed:             *seed,
	})

	var sink stack.Sink
	if *stream {
		switch *format {
		case "text":
			sink = stack.NewTextSink(os.Stdout)
		case "jsonl":
			sink = stack.NewJSONLSink(os.Stdout)
		case "sarif":
			sink = stack.NewSARIFSink(os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "debian: unknown -format %q (want text, jsonl, or sarif)\n", *format)
			os.Exit(2)
		}
	} else if *format != "text" {
		fmt.Fprintln(os.Stderr, "debian: -format requires -stream")
		os.Exit(2)
	}

	if *remote != "" {
		remoteSweep(ctx, *remote, *authToken, pkgs, sink)
		return
	}

	res, err := az.Sweep(ctx, pkgs, sink)
	if err != nil {
		fmt.Fprintf(os.Stderr, "debian: %v\n", err)
		os.Exit(1)
	}
	if *stream && *format != "text" {
		return // keep stdout machine-consumable; no summary block
	}
	if *stream {
		fmt.Println()
	}
	fmt.Print(res.Format())
}

// remoteSweep flattens the archive into one batch and streams it
// through stackd replicas, dealt least-pending across the healthy
// fleet. File names follow the local sweeper's "pkg_N.c" convention,
// so the text sink's stream is byte-identical to a local -stream run.
func remoteSweep(ctx context.Context, remote, authToken string, pkgs []stack.Package, sink stack.Sink) {
	chk, err := shard.FromHosts(remote, shard.WithClientOptions(client.WithAuthToken(authToken)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "debian: -remote: %v\n", err)
		os.Exit(2)
	}
	// An archive sweep runs long enough for replicas to die and come
	// back; background probes keep the fleet view current.
	stopHealth := chk.StartHealth(0)
	defer stopHealth()
	var srcs []stack.Source
	for _, p := range pkgs {
		for fi, f := range p.Files {
			srcs = append(srcs, stack.Source{Name: fmt.Sprintf("%s_%d.c", p.Name, fi), Text: f})
		}
	}
	_, err = chk.CheckSources(ctx, srcs, func(fr stack.FileResult) {
		if err := sink.Emit(fr); err != nil {
			fmt.Fprintf(os.Stderr, "debian: %v\n", err)
			os.Exit(1)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "debian: %v\n", err)
		os.Exit(1)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "debian: %v\n", err)
		os.Exit(1)
	}
}

// archivePackages generates the synthetic archive and converts it to
// the public API's package form.
func archivePackages(cfg corpus.ArchiveConfig) []stack.Package {
	pkgs := corpus.GenerateArchive(cfg)
	out := make([]stack.Package, len(pkgs))
	for i, p := range pkgs {
		out[i] = stack.Package{Name: p.Name, Files: p.Files}
	}
	return out
}
