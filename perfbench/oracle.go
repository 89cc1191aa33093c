package main

import (
	"bytes"
	"fmt"

	"xic"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// The oracle answers on the tree path: parse the document into a tree,
// check DTD conformance with xmltree.Validator and every constraint with
// constraint.Satisfied. It shares no code with the streaming checker and
// the session engine that xicd answers with.

// treeValid reports whether the document conforms to the DTD and satisfies
// every constraint. Only a malformed document is an error.
func treeValid(d *dtd.DTD, sigma []xic.Constraint, body []byte) (bool, error) {
	t, err := xmltree.Parse(bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	return treeSatisfies(d, sigma, t), nil
}

func treeSatisfies(d *dtd.DTD, sigma []xic.Constraint, t *xmltree.Tree) bool {
	if xmltree.NewValidator(d).Validate(t) != nil {
		return false
	}
	ok, _ := constraint.SatisfiedAll(t, sigma)
	return ok
}

// checkWitness confirms that a witness document conforms to the DTD and
// satisfies every constraint of the spec.
func checkWitness(s *specDef, xml string) error {
	t, err := xmltree.ParseString(xml)
	if err != nil {
		return fmt.Errorf("witness does not parse: %w", err)
	}
	if err := xmltree.NewValidator(s.spec.DTD()).Validate(t); err != nil {
		return fmt.Errorf("witness does not conform: %w", err)
	}
	if ok, c := constraint.SatisfiedAll(t, s.sigma); !ok {
		return fmt.Errorf("witness violates %s", c)
	}
	return nil
}

// checkCounterexample confirms that a counterexample to Σ ⊨ φ conforms to
// the DTD, satisfies Σ and violates φ.
func checkCounterexample(s *specDef, phi xic.Constraint, xml string) error {
	if err := checkWitness(s, xml); err != nil {
		return fmt.Errorf("counterexample: %w", err)
	}
	t, err := xmltree.ParseString(xml)
	if err != nil {
		return err
	}
	if constraint.Satisfied(t, phi) {
		return fmt.Errorf("counterexample satisfies the query %s", phi)
	}
	return nil
}
