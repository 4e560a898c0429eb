package appmap

// Test seams for the external test package, which needs chipcfg (an
// importer of this package) to build the paper configurations.

// SimulateAll makes e send every phase through the network instead of
// replaying recorded phases.
func SimulateAll(e *Engine) { e.simulateAll = true }

// PaperDecode is paperDecode for the external test package.
var PaperDecode = paperDecode
