// The archive-lifecycle benchmark is a module of its own because the
// contract it is written to asks for a compiled benchmark to be a package
// of its own, with its own build file, in the benchmark's directory. The
// replace directive points at the checkout it sits in; the import path
// keeps it inside the aecodes/ tree, so aecodes/internal/... stays
// importable.
module aecodes/bench

go 1.24

require aecodes v0.0.0

replace aecodes => ../
