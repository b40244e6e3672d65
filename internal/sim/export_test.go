package sim

// NewReferenceEngine exposes the test-only reference simulator
// (reference_test.go) to the external sim_test package.
var NewReferenceEngine = newReferenceEngine
