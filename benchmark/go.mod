// The benchmark is a module of its own so the root module's build and
// tests neither see nor depend on it; it reaches the code under test
// through the replace below (the import paths stay inside "repro/", so
// the internal/ packages remain importable).
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
