package ir

// CheckIDsThroughPipeline is checkIDsThroughPipeline, for the tests
// that run it over the corpora of other packages.
var CheckIDsThroughPipeline = checkIDsThroughPipeline
