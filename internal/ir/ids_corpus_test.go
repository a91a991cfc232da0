package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/corpus"
	"repro/internal/ir"
)

func buildSource(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	file, err := cc.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if err := cc.Check(file); err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	p, err := ir.Build(file)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	return p
}

// TestIDsHoldOnFig9Corpus checks the ID invariant the SSA passes index
// by, after Build, after inlining and after each SSA pass, on every
// file of the Figure 9 corpus.
func TestIDsHoldOnFig9Corpus(t *testing.T) {
	for _, s := range corpus.GenerateFig9() {
		if err := ir.CheckIDsThroughPipeline(buildSource(t, s.System, s.Source)); err != nil {
			t.Errorf("%s: %v", s.System, err)
		}
	}
}

// TestIDsHoldOnMacroHeavySource does the same on one file shaped like
// the benchmark's macro-heavy workload: a 5-deep chain of
// function-like macros expanded into long straight-line functions
// over typedef'd operands, plus one planted division.
func TestIDsHoldOnMacroHeavySource(t *testing.T) {
	if err := ir.CheckIDsThroughPipeline(buildSource(t, "macro.c", macroHeavySource())); err != nil {
		t.Fatal(err)
	}
}

func macroHeavySource() string {
	var b strings.Builder
	b.WriteString("#include <stdint.h>\n")
	b.WriteString("#define MIX1(a, b) (((a) ^ (b)) + ((a) & 0x5bd1e995u))\n")
	b.WriteString("#define MIX2(a, b) (MIX1(a, b) ^ MIX1(b, a))\n")
	b.WriteString("#define MIX3(a, b) (MIX2(a, b) + MIX2(b, a))\n")
	b.WriteString("#define MIX4(a, b) (MIX3(a, b) ^ (b))\n")
	b.WriteString("#define MIX5(a, b) (MIX4(a, b) + MIX4(b, 7u))\n")
	for s := 0; s < 4; s++ {
		fmt.Fprintf(&b, "struct rec%d { unsigned int f0; unsigned int f1; unsigned int f%d; };\n", s, s+2)
		fmt.Fprintf(&b, "typedef unsigned int word%d;\n", s)
	}
	for f := 0; f < 4; f++ {
		fmt.Fprintf(&b, "word%d mix%d(word%d x, word%d y) {\n\tword%d h = x;\n", f, f, f, f, f)
		for s := 0; s < 3; s++ {
			fmt.Fprintf(&b, "\th = MIX5(h, y + %du);\n", 17*f+s)
			fmt.Fprintf(&b, "\th = h + (word%d)sizeof(struct rec%d);\n", f, (f+s)%4)
		}
		b.WriteString("\treturn h;\n}\n")
	}
	b.WriteString("unsigned int planted(unsigned int x, unsigned int y) {\n\tunsigned int q = x / y;\n\tif (y == 0)\n\t\treturn 0;\n\treturn q;\n}\n")
	return b.String()
}
