package xic

import "xic/internal/ilp"

// DefaultMaxNodes is the branch-and-bound node budget used when
// SolveOptions.MaxNodes is zero.
const DefaultMaxNodes = ilp.DefaultMaxNodes

// SolveOptions is the one knob set for the NP decision procedures. A zero
// SolveOptions is the serving default: presolve on, int64 fast
// tableau on, serial branch-and-bound, witnesses built, DefaultMaxNodes
// budget. Values are applied to a Spec with Spec.WithSolveOptions or
// per call with Spec.ConsistentOpts / Spec.ImpliesOpts, normally through
// the functional constructors (WithMaxNodes, WithSolverParallelism,
// WithoutPresolve, WithoutFastTableau, WithSkipWitness).
type SolveOptions struct {
	// MaxNodes bounds the number of branch-and-bound nodes (LP solves)
	// per check. Zero means DefaultMaxNodes; negative values are rejected
	// with an error matching ErrInvalidOptions at check time.
	MaxNodes int

	// SolverParallelism is the solver-side concurrency knob. It bounds
	// both the branch-and-bound worker goroutines inside one check and the
	// worker pool of the batch entry points (ConsistentAll, ImpliesAll).
	// Zero means automatic: a serial search per check, GOMAXPROCS workers
	// for batches. Verdicts are identical at any parallelism — only the
	// witness document and the node count may differ, because parallel
	// workers explore the search tree in a different order.
	SolverParallelism int

	// DisablePresolve skips the presolve layer (bound propagation, GCD
	// tightening, Chvátal–Gomory root cuts) and runs branch-and-bound on
	// the raw system. For ablation benchmarks and cross-validation only.
	DisablePresolve bool

	// DisableFastTableau forces every LP onto the exact big.Rat simplex
	// kernel, skipping the overflow-checked int64 fast tableau. For
	// ablation benchmarks and cross-validation only.
	DisableFastTableau bool

	// SkipWitness returns bare verdicts without constructing witness or
	// counterexample documents.
	SkipWitness bool
}

// SolveOption is one functional tweak to a SolveOptions value.
type SolveOption func(*SolveOptions)

// WithMaxNodes bounds the branch-and-bound search to n nodes per check.
// n = 0 restores DefaultMaxNodes.
func WithMaxNodes(n int) SolveOption {
	return func(o *SolveOptions) { o.MaxNodes = n }
}

// WithSolverParallelism runs the branch-and-bound search and the batch
// entry points on at most n goroutines. n < 1 restores the automatic
// default (serial search, GOMAXPROCS batch workers).
func WithSolverParallelism(n int) SolveOption {
	return func(o *SolveOptions) {
		if n < 1 {
			n = 0
		}
		o.SolverParallelism = n
	}
}

// WithoutPresolve disables the presolve layer (ablation only).
func WithoutPresolve() SolveOption {
	return func(o *SolveOptions) { o.DisablePresolve = true }
}

// WithoutFastTableau forces the exact big.Rat kernel for every LP
// (ablation only).
func WithoutFastTableau() SolveOption {
	return func(o *SolveOptions) { o.DisableFastTableau = true }
}

// WithSkipWitness returns bare verdicts without witness documents.
func WithSkipWitness() SolveOption {
	return func(o *SolveOptions) { o.SkipWitness = true }
}
