// The benchmark is a module of its own (the driver's contract: a compiled
// benchmark carries its own build file). The module path sits under
// "holistic/" so that Go's internal-package rule lets it import
// holistic/internal/... for the layer ladder; the replace points at the
// repository root, so the build fails — as the contract requires — when
// the benchmark directory is copied somewhere without the library.
module holistic/benchmark

go 1.24

require holistic v0.0.0

replace holistic => ../
