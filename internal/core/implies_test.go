package core

import (
	"context"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

func TestImpliesKeySubsumption(t *testing.T) {
	d := dtd.School()
	sigma := constraint.MustParse("course(dept) -> course")
	phi := constraint.Key{Type: "course", Attrs: []string{"dept", "course_no"}}
	ok, err := ImpliesKey(d, sigma, phi)
	if err != nil {
		t.Fatalf("ImpliesKey: %v", err)
	}
	if !ok {
		t.Error("superkey of a Σ key should be implied")
	}

	// The converse direction is not subsumption.
	phi2 := constraint.Key{Type: "course", Attrs: []string{"course_no"}}
	sigma2 := constraint.MustParse("course(dept, course_no) -> course")
	ok, err = ImpliesKey(d, sigma2, phi2)
	if err != nil {
		t.Fatalf("ImpliesKey: %v", err)
	}
	if ok {
		t.Error("a proper subkey must not be implied when two courses are possible")
	}
}

func TestImpliesKeySingletonType(t *testing.T) {
	// The root occurs exactly once in any tree, so every key on it holds
	// vacuously (Lemma 3.7's second disjunct).
	d := dtd.MustParse(`
<!ELEMENT r (a, a)>
<!ELEMENT a (#PCDATA)>
<!ATTLIST r k CDATA #REQUIRED>
<!ATTLIST a l CDATA #REQUIRED>
`)
	ok, err := ImpliesKey(d, nil, constraint.UnaryKey("r", "k"))
	if err != nil {
		t.Fatalf("ImpliesKey: %v", err)
	}
	if !ok {
		t.Error("keys on a once-occurring type are vacuously implied")
	}
	ok, err = ImpliesKey(d, nil, constraint.UnaryKey("a", "l"))
	if err != nil {
		t.Fatalf("ImpliesKey: %v", err)
	}
	if ok {
		t.Error("two a-nodes exist, so the empty Σ implies no key on a")
	}
}

func TestImpliesKeyRejectsNonKeySigma(t *testing.T) {
	if _, err := ImpliesKey(dtd.Teachers(), constraint.Sigma1(), constraint.UnaryKey("teacher", "name")); err == nil {
		t.Error("ImpliesKey must reject Σ with foreign keys")
	}
}

func TestImpliesKeyCounterexample(t *testing.T) {
	d := dtd.School()
	sigma := constraint.MustParse("course(dept, course_no) -> course")
	phi := constraint.Key{Type: "course", Attrs: []string{"dept"}}
	imp, err := implies(d, sigma, phi, nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if imp.Implied {
		t.Fatal("dept alone is not implied as a key")
	}
	ce := imp.Counterexample
	if ce == nil {
		t.Fatal("expected counterexample")
	}
	if !xmltree.Conforms(ce, d) {
		t.Error("counterexample does not conform to D3")
	}
	if ok, v := constraint.SatisfiedAll(ce, sigma); !ok {
		t.Errorf("counterexample violates Σ constraint %s", v)
	}
	if constraint.Satisfied(ce, phi) {
		t.Error("counterexample satisfies φ")
	}
}

func TestImpliesUnaryKeyViaStructure(t *testing.T) {
	// At most one 'a' exists, so a.x → a holds in every valid tree even
	// with an empty Σ — the XML/relational contrast the paper draws against
	// Cosmadakis et al.
	d := dtd.MustParse(`
<!ELEMENT r (a?, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	imp, err := implies(d, nil, constraint.UnaryKey("a", "x"), nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if !imp.Implied {
		t.Error("a.x → a is vacuously implied when |ext(a)| ≤ 1")
	}

	imp, err = implies(d, nil, constraint.UnaryKey("b", "y"), nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if imp.Implied {
		t.Error("b.y → b is not implied (two b-nodes can share values)")
	}
	if imp.Counterexample == nil {
		t.Fatal("expected counterexample")
	}
	if constraint.Satisfied(imp.Counterexample, constraint.UnaryKey("b", "y")) {
		t.Error("counterexample satisfies the key it should refute")
	}
}

func TestImpliesInclusion(t *testing.T) {
	// Σ: a.x ⊆ b.y, b.y ⊆ c.z — transitivity is implied.
	d := dtd.MustParse(`
<!ELEMENT r (a*, b*, c*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
<!ATTLIST c z CDATA #REQUIRED>
`)
	sigma := constraint.MustParse("a.x <= b.y\nb.y <= c.z")
	phi := constraint.UnaryInclusion("a", "x", "c", "z")
	imp, err := implies(d, sigma, phi, nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if !imp.Implied {
		t.Error("inclusion is transitive; a.x ⊆ c.z should be implied")
	}

	// The reverse is not implied; the counterexample must violate it.
	rev := constraint.UnaryInclusion("c", "z", "a", "x")
	imp, err = implies(d, sigma, rev, nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if imp.Implied {
		t.Error("c.z ⊆ a.x is not implied")
	}
	if imp.Counterexample == nil {
		t.Fatal("expected counterexample")
	}
	if constraint.Satisfied(imp.Counterexample, rev) {
		t.Error("counterexample satisfies the refuted inclusion")
	}
	if ok, v := constraint.SatisfiedAll(imp.Counterexample, sigma); !ok {
		t.Errorf("counterexample violates Σ constraint %s", v)
	}
}

func TestImpliesForeignKey(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a*, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	// Σ asserts the foreign key itself: trivially implied.
	sigma := constraint.MustParse("a.x => b.y")
	phi := constraint.UnaryForeignKey("a", "x", "b", "y")
	imp, err := implies(d, sigma, phi, nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if !imp.Implied {
		t.Error("a foreign key implies itself")
	}

	// Only the inclusion, not the key: the FK is not implied.
	sigma2 := constraint.MustParse("a.x <= b.y")
	imp, err = implies(d, sigma2, phi, nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if imp.Implied {
		t.Error("inclusion alone does not imply the foreign key (key part missing)")
	}
}

func TestInconsistentSigmaImpliesEverything(t *testing.T) {
	imp, err := implies(dtd.Teachers(), constraint.Sigma1(), constraint.UnaryKey("research", "x"), nil)
	if err == nil {
		// research has no attribute x; expect a validation error instead.
		t.Fatalf("expected validation error, got %+v", imp)
	}
	imp, err = implies(dtd.Teachers(), constraint.Sigma1(),
		constraint.UnaryInclusion("teacher", "name", "subject", "taught_by"), nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if !imp.Implied {
		t.Error("an inconsistent (D,Σ) implies every constraint vacuously")
	}
}

func TestImpliesRejectsMultiAttrConclusion(t *testing.T) {
	d := dtd.School()
	phi := constraint.Inclusion{
		Child: "enroll", ChildAttrs: []string{"dept", "course_no"},
		Parent: "course", ParentAttrs: []string{"dept", "course_no"},
	}
	if _, err := implies(d, nil, phi, nil); err == nil {
		t.Error("multi-attribute conclusion should be rejected as undecidable")
	}
}

func TestCheckerImplies(t *testing.T) {
	c, err := newChecker(dtd.Teachers())
	if err != nil {
		t.Fatalf("newChecker: %v", err)
	}
	imp, err := c.ImpliesContext(context.Background(),
		constraint.MustParse("teacher.name -> teacher"),
		constraint.UnaryKey("teacher", "name"), nil)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if !imp.Implied {
		t.Error("Σ implies its own member")
	}
}
