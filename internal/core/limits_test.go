package core

import (
	"errors"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/reduction"
)

func TestSolverBudgetSurfacesAsError(t *testing.T) {
	// Σ1's refutation needs no branching (its LP relaxation is already
	// infeasible), so use the odd-cycle 0/1-LIP gadget of Theorem 4.7,
	// whose LP relaxation has the fractional solution x = ½ and therefore
	// forces integrality branching beyond one node.
	spec, err := reduction.LIPToSpec([][]int{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}})
	if err != nil {
		t.Fatalf("LIPToSpec: %v", err)
	}
	_, err = consistent(spec.DTD, spec.Sigma, &Options{
		Solver:      ilp.Options{MaxNodes: 1},
		SkipWitness: true,
	})
	if !errors.Is(err, ilp.ErrNodeLimit) {
		t.Errorf("solver limit not surfaced: %v", err)
	}
}

func TestDiagnosePropagatesSolverBudget(t *testing.T) {
	// Presolve decides the Σ1 checks without any search, so the budget can
	// only trip — and the test can only exercise its propagation — on the
	// raw branch-and-bound path.
	_, err := diagnose(dtd.Teachers(), constraint.Sigma1(), &Options{
		Solver: ilp.Options{MaxNodes: 1, DisablePresolve: true},
	})
	if !errors.Is(err, ilp.ErrNodeLimit) {
		t.Errorf("Diagnose should propagate the solver limit: %v", err)
	}
}

func TestNilOptionsEverywhere(t *testing.T) {
	// Every Checker entry point accepts nil options and a nil context.
	c, err := newChecker(dtd.Teachers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConsistentContext(nil, nil, nil); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Errorf("ConsistentContext(nil opts): %v", err)
	}
	if _, err := c.ImpliesContext(nil, nil, constraint.UnaryKey("teacher", "name"), nil); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Errorf("ImpliesContext(nil opts): %v", err)
	}
}
