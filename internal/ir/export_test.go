package ir

import "repro/internal/cc"

// CheckIDsThroughPipeline is checkIDsThroughPipeline, for the tests
// that run it over the corpora of other packages.
var CheckIDsThroughPipeline = checkIDsThroughPipeline

// buildInMemory is Build with every slot left in memory: each read and
// write of a local stays a load and a store. It is the reference of
// FuzzBuildPromotionDifferential.
func buildInMemory(file *cc.File) (*Program, error) { return buildProgram(file, false) }
