package core

import (
	"context"

	"xic/internal/constraint"
	"xic/internal/dtd"
)

// newChecker binds a Checker to a fresh Engine over d, the way xic.Compile
// does.
func newChecker(d *dtd.DTD) (*Checker, error) {
	eng, err := NewEngine(d)
	if err != nil {
		return nil, err
	}
	return eng.NewChecker(), nil
}

// consistent runs one consistency check against d on a fresh Checker.
func consistent(d *dtd.DTD, set []constraint.Constraint, opt *Options) (*Result, error) {
	c, err := newChecker(d)
	if err != nil {
		return nil, err
	}
	return c.ConsistentContext(context.Background(), set, opt)
}

// implies runs one implication check against d on a fresh Checker.
func implies(d *dtd.DTD, sigma []constraint.Constraint, phi constraint.Constraint, opt *Options) (*Implication, error) {
	c, err := newChecker(d)
	if err != nil {
		return nil, err
	}
	return c.ImpliesContext(context.Background(), sigma, phi, opt)
}

// diagnose runs one diagnosis against d on a fresh Checker.
func diagnose(d *dtd.DTD, set []constraint.Constraint, opt *Options) (*Diagnosis, error) {
	c, err := newChecker(d)
	if err != nil {
		return nil, err
	}
	return c.DiagnoseContext(context.Background(), set, opt)
}
