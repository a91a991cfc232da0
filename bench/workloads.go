package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/stack"
)

// scale sizes every workload. fullScale is the benchmark; the smoke test
// shrinks it.
type scale struct {
	archiveParts    int // archive-sweep: archives swept in turn
	archivePackages int // archive-sweep: packages of 3 files × 6 functions per archive
	fig9Systems     int // hard-queries: Figure 9 systems, in figure order
	chainFiles      int // hard-queries: chain-heavy files after them
	macroFiles      int // macro-heavy
	setups          int // set-ups per run; setup_s is their median
}

var fullScale = scale{
	archiveParts:    6,
	archivePackages: 60,
	fig9Systems:     len(corpus.Fig9),
	chainFiles:      24,
	macroFiles:      60,
	setups:          3,
}

// warmup is the scale of the set-up's warm-up corpus, a quarter of the
// first part. The generators make their files in order, so every
// warm-up file is also a file of the first part.
func (sc scale) warmup() scale {
	w := sc
	w.archiveParts = 1
	w.archivePackages = max(1, sc.archivePackages/4)
	w.fig9Systems = max(1, sc.fig9Systems/4)
	w.chainFiles = max(1, sc.chainFiles/4)
	w.macroFiles = max(1, sc.macroFiles/4)
	return w
}

// finding is one diagnostic reduced to what the known answers talk
// about: the function it names and the kinds of its UB conditions. Both
// stack.Diagnostic and core.Report reduce to it, so the untraced and
// the traced paths share one set of gates.
type finding struct {
	function string
	kinds    []string
}

func findingsOf(diags []stack.Diagnostic) []finding {
	out := make([]finding, len(diags))
	for i, d := range diags {
		out[i].function = d.Function
		for _, u := range d.UB {
			out[i].kinds = append(out[i].kinds, u.Kind)
		}
	}
	return out
}

func findingsOfReports(reports []*core.Report) []finding {
	out := make([]finding, len(reports))
	for i, r := range reports {
		out[i].function = r.Func
		for _, u := range r.UBConds {
			out[i].kinds = append(out[i].kinds, u.Kind.String())
		}
	}
	return out
}

func (f finding) has(function, kind string) bool {
	if function != "" && f.function != function {
		return false
	}
	for _, k := range f.kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// batch is one part of a workload: a fixed corpus that a round analyzes
// whole. A workload with several parts analyzes them in turn.
type batch struct {
	sources []stack.Source
	// pkgs groups sources into archive packages; when set, a round is
	// Analyzer.Sweep over pkgs, otherwise Analyzer.CheckSources over
	// sources.
	pkgs []stack.Package
	// check compares one round's findings, indexed like sources, with
	// the answers known from how the corpus was generated.
	check func(files [][]finding) error
}

// archiveShape is corpus.DefaultArchive with another seed and size.
func archiveShape(seed int64, packages int) corpus.ArchiveConfig {
	cfg := corpus.DefaultArchive
	cfg.Seed = seed
	cfg.Packages = packages
	return cfg
}

// archiveSweep is the paper's §6.4 whole-archive run over
// DefaultArchive-shaped archives. One archive of parts × packages is
// generated from the seed and cut into parts, each swept whole. Files
// that cost a hundred times the median are rare and land in one part,
// so they slow that part's rounds and not the median round.
func archiveSweep(seed int64, sc scale) []*batch {
	all := corpus.GenerateArchive(archiveShape(seed, sc.archiveParts*sc.archivePackages))
	parts := make([]*batch, sc.archiveParts)
	for i := range parts {
		parts[i] = archivePart(all[i*sc.archivePackages : (i+1)*sc.archivePackages])
	}
	return parts
}

func archivePart(gen []corpus.Package) *batch {
	b := &batch{}
	var pkgOf []int
	for pi, p := range gen {
		b.pkgs = append(b.pkgs, stack.Package{Name: p.Name, Files: p.Files})
		for fi, src := range p.Files {
			// The sweep names files the same way.
			b.sources = append(b.sources, stack.Source{Name: fmt.Sprintf("%s_%d.c", p.Name, fi), Text: src})
			pkgOf = append(pkgOf, pi)
		}
	}
	b.check = func(files [][]finding) error {
		perPkg := make([][]finding, len(gen))
		for i, fs := range files {
			perPkg[pkgOf[i]] = append(perPkg[pkgOf[i]], fs...)
		}
		for i, p := range gen {
			if err := checkPackage(p, perPkg[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return b
}

// checkPackage holds a package's reports to its plants: a package with
// no planted bug has no report, and every planted UB kind appears among
// its reports.
func checkPackage(p corpus.Package, fs []finding) error {
	if len(p.Planted) == 0 && len(fs) > 0 {
		return fmt.Errorf("%s: %d report(s) in a package with no planted bug", p.Name, len(fs))
	}
	for kind := range p.Planted {
		found := false
		for _, f := range fs {
			if f.has("", kind.String()) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: planted %v not reported", p.Name, kind)
		}
	}
	return nil
}

// hardQueries is the Figure 9 corpus, whose planted bugs need long SAT
// searches, followed by chain-heavy files whose constants come from the
// seed.
func hardQueries(seed int64, sc scale) []*batch {
	b := &batch{}
	var plants [][]corpus.PlantedBug
	for _, ss := range corpus.GenerateFig9()[:sc.fig9Systems] {
		b.sources = append(b.sources, stack.Source{Name: identifier(ss.System) + ".c", Text: ss.Source})
		plants = append(plants, ss.Bugs)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sc.chainFiles; i++ {
		b.sources = append(b.sources, stack.Source{
			Name: fmt.Sprintf("chain%02d.c", i),
			Text: chainSource(i, 2+rng.Intn(7), 3+rng.Intn(11), 1+rng.Intn(5)),
		})
	}
	b.check = func(files [][]finding) error {
		for i, fs := range files {
			if i >= len(plants) {
				if err := exactlyOne(b.sources[i].Name, fs, "chain", "pointer overflow"); err != nil {
					return err
				}
				continue
			}
			for _, bug := range plants[i] {
				found := false
				for _, f := range fs {
					if f.has(bug.FuncName, bug.Kind.String()) {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("%s: planted %v in %s not reported", b.sources[i].Name, bug.Kind, bug.FuncName)
				}
			}
		}
		return nil
	}
	return []*batch{b}
}

// exactlyOne requires a file to have exactly one report, in the
// function whose name starts with fnPrefix, naming kind.
func exactlyOne(name string, fs []finding, fnPrefix, kind string) error {
	if len(fs) != 1 {
		return fmt.Errorf("%s: %d report(s), want exactly 1", name, len(fs))
	}
	if !strings.HasPrefix(fs[0].function, fnPrefix) || !fs[0].has("", kind) {
		return fmt.Errorf("%s: report in %s with %v, want %s in %s*", name, fs[0].function, fs[0].kinds, kind, fnPrefix)
	}
	return nil
}

func identifier(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '_'
	}, s)
}

// chainSource is one chain-heavy function: three arms that each rebuild
// a long bitwise chain over one load, then the Figure 1 pointer-overflow
// check, which is the file's only report.
func chainSource(i, k1, k2, k3 int) string {
	chain := fmt.Sprintf(
		"((((((t ^ a) & (t | %d)) ^ (t & b)) | (t ^ %d)) & ((t | a) ^ (t & %d))) ^ ((t & %d) | (t ^ b))) ^ (((t | %d) & (t ^ a)) | ((t & %d) ^ (t | b)))",
		k1, k2, k3, k2+k3, k1+k2, k1+k3)
	return fmt.Sprintf(`
int chain%02d(int a, int b, char *buf, char *buf_end, unsigned int len) {
	int w = a * %d + b;
	w = w + (a ^ %d);
	w = w * 3 + (b & %d);
	w = w + (a | 1);
	w = w * 5 + b;
	int acc = w + a;
	int *p = &acc;
	int u = (a ^ %d) + (a ^ %d);
	int r = 0;
	if (a > b) {
		int t = *p;
		r = (%s) ^ a;
	} else if (b > 0) {
		int t = *p;
		r = (%s) ^ b;
	} else {
		int t = *p;
		r = (%s) | 1;
	}
	if (buf + len >= buf_end)
		return -1;
	if (buf + len < buf)
		return -1;
	return (r ^ *p) + u + w;
}
`, i, k1, k2, k3, k2, k2, chain, chain, chain)
}

// macroHeavy is a corpus of declaration- and macro-dense files whose
// cost is almost all frontend.
func macroHeavy(seed int64, sc scale) []*batch {
	b := &batch{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sc.macroFiles; i++ {
		b.sources = append(b.sources, stack.Source{Name: fmt.Sprintf("macro%02d.c", i), Text: macroSource(rng, i)})
	}
	b.check = func(files [][]finding) error {
		for i, fs := range files {
			if err := exactlyOne(b.sources[i].Name, fs, "planted", "division by zero"); err != nil {
				return err
			}
		}
		return nil
	}
	return []*batch{b}
}

// macroSource writes one macro-heavy file: 12 structs, 12 typedefs, a
// 5-deep chain of function-like MIXk macros, an #ifdef-excluded block
// that would report if it were compiled, 16 straight-line unsigned
// functions, and one planted division whose zero check comes after it.
// Macro nesting stays at 5 so frontend depth limits accept the file.
func macroSource(rng *rand.Rand, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* macro-heavy unit %d */\n#include <stdint.h>\n", n)
	fmt.Fprintf(&b, "#define MIX1(a, b) (((a) ^ (b)) + ((a) & %#xu))\n", rng.Uint32())
	b.WriteString("#define MIX2(a, b) (MIX1(a, b) ^ MIX1(b, a))\n")
	b.WriteString("#define MIX3(a, b) (MIX2(a, b) + MIX2(b, a))\n")
	b.WriteString("#define MIX4(a, b) (MIX3(a, b) ^ (b))\n")
	b.WriteString("#define MIX5(a, b) (MIX4(a, b) + MIX4(b, 7u))\n\n")
	for s := 0; s < 12; s++ {
		fmt.Fprintf(&b, "struct rec%d_%d {\n", n, s)
		for f := 0; f < 6+rng.Intn(4); f++ {
			fmt.Fprintf(&b, "\tunsigned int f%d;\n", f)
		}
		b.WriteString("};\n")
		fmt.Fprintf(&b, "typedef unsigned int word%d_%d;\n", n, s)
	}
	b.WriteString("\n#ifdef BENCH_EXCLUDED\n")
	fmt.Fprintf(&b, "unsigned int excluded_%d(unsigned int x, unsigned int y) {\n\tunsigned int q = x / y;\n\tif (y == 0)\n\t\treturn 0;\n\treturn q;\n}\n", n)
	b.WriteString("#endif\n")
	for f := 0; f < 16; f++ {
		t := rng.Intn(12)
		fmt.Fprintf(&b, "\nword%d_%d mix%d_%d(word%d_%d x, word%d_%d y) {\n", n, t, n, f, n, t, n, t)
		b.WriteString("\tword" + fmt.Sprintf("%d_%d", n, t) + " h = x;\n")
		for s := 0; s < 3; s++ {
			fmt.Fprintf(&b, "\th = MIX5(h, y + %du);\n", rng.Intn(1000))
			fmt.Fprintf(&b, "\th = h + (word%d_%d)sizeof(struct rec%d_%d);\n", n, t, n, rng.Intn(12))
		}
		b.WriteString("\treturn h;\n}\n")
	}
	fmt.Fprintf(&b, "\nunsigned int planted_%d(unsigned int x, unsigned int y) {\n\tunsigned int q = x / y;\n\tif (y == 0)\n\t\treturn 0;\n\treturn q;\n}\n", n)
	return b.String()
}
