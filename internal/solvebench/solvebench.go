// Package solvebench defines the committed ILP solver benchmark corpus —
// the single source of truth behind BENCH_solve.json, the CI presolve
// gate (cmd/benchdiff -kind solve) and the xicbench ablation table. The
// case list, DTD families and random seeds live here so the published
// numbers and the gated numbers can never drift apart.
package solvebench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/randgen"
	"xic/internal/reduction"
)

// Case is one corpus entry: a compiled Checker (per-DTD work amortised,
// as in serving) plus the constraint set whose consistency the solver
// decides.
type Case struct {
	Name    string
	Checker *core.Checker
	Set     []constraint.Constraint
}

// Corpus builds the benchmark corpus. It spans the NP pipeline: the
// paper's inconsistent Σ1 pattern at increasing scales (its refutation is
// a cardinality cycle presolve cannot decide alone), random unary mixes
// over a wide DTD, the negation class of Theorem 5.1, and a 0/1-LIP
// gadget of Theorem 4.7. full adds the largest teacher family; the
// committed BENCH_solve.json is recorded with full=false.
func Corpus(full bool) ([]Case, error) {
	var cases []Case
	add := func(name string, d *dtd.DTD, set []constraint.Constraint) error {
		eng, err := core.NewEngine(d)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := eng.Precompile(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cases = append(cases, Case{Name: name, Checker: eng.NewChecker(), Set: set})
		return nil
	}
	blocks := []int{2, 4}
	if full {
		blocks = append(blocks, 8)
	}
	for _, b := range blocks {
		if err := add(fmt.Sprintf("teacher-%d-inconsistent", b),
			randgen.TeacherFamily(b), randgen.TeacherFamilyConstraints(b, true)); err != nil {
			return nil, err
		}
	}
	wide := randgen.WideDTD(4)
	rng := rand.New(rand.NewSource(5))
	if err := add("wide-random-16", wide,
		randgen.RandUnarySet(rng, wide, randgen.SetSpec{Keys: 8, ForeignKeys: 4, Inclusions: 4})); err != nil {
		return nil, err
	}
	if err := add("wide-negations", wide,
		randgen.RandUnarySet(rng, wide, randgen.SetSpec{Keys: 2, Inclusions: 2, NegKeys: 1, NegInclusions: 1})); err != nil {
		return nil, err
	}
	lip, err := reduction.LIPToSpec(randgen.RandLIP01(rand.New(rand.NewSource(11)), 3, 4, 50))
	if err != nil {
		return nil, fmt.Errorf("lip-3x4: %w", err)
	}
	if err := add("lip-3x4", lip.DTD, lip.Sigma); err != nil {
		return nil, err
	}
	return cases, nil
}

// Options returns the solver options for one side of the comparison:
// witnesses skipped (the serving configuration the corpus models) and the
// full accelerated pipeline — presolve, root cuts and the int64 fast
// tableau — on or off together. The raw side disables both layers so the
// committed speedup measures the whole optimisation stack, not presolve
// alone.
func Options(acceleratedOn bool) *core.Options {
	return &core.Options{
		SkipWitness: true,
		Solver: ilp.Options{
			DisablePresolve:    !acceleratedOn,
			DisableFastTableau: !acceleratedOn,
		},
	}
}

// FastOptions returns the options for one side of the fast-tableau
// ablation: the serving configuration (presolve on) with the int64 kernel
// on or off, isolating the simplex-kernel contribution from presolve's.
func FastOptions(fastOn bool) *core.Options {
	return &core.Options{
		SkipWitness: true,
		Solver:      ilp.Options{DisableFastTableau: !fastOn},
	}
}

// Run decides the case once under opt, returning the verdict.
func (c Case) Run(ctx context.Context, opt *core.Options) (bool, error) {
	res, err := c.Checker.ConsistentContext(ctx, c.Set, opt)
	if err != nil {
		return false, fmt.Errorf("%s: %w", c.Name, err)
	}
	return res.Consistent, nil
}

// BestOf times f, warming once and keeping the best of three, so a
// scheduler stall cannot inflate a committed baseline. Callers reading
// counter deltas across a BestOf call divide by Runs.
func BestOf(f func()) time.Duration {
	f()
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// Runs is the number of times BestOf invokes its function.
const Runs = 4
