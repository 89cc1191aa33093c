package core

import (
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
)

func TestDiagnoseSigma1(t *testing.T) {
	diag, err := diagnose(dtd.Teachers(), constraint.Sigma1(), nil)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if diag.DTDEmpty {
		t.Fatal("D1 has valid trees")
	}
	// The minimal core of Σ1 is the subject key plus the foreign key: the
	// teacher key is not needed for the cardinality clash (the inclusion
	// alone bounds |ext(subject.taught_by)| by |ext(teacher.name)| ≤
	// |ext(teacher)|).
	if len(diag.Core) != 2 {
		t.Fatalf("core = %v, want 2 constraints", diag.Core)
	}
	got := map[string]bool{}
	for _, c := range diag.Core {
		got[c.String()] = true
	}
	if !got["subject.taught_by -> subject"] || !got["subject.taught_by => teacher.name"] {
		t.Errorf("core = %v, want the subject key and the foreign key", diag.Core)
	}

	// Minimality: dropping either member restores consistency.
	for i := range diag.Core {
		rest := append([]constraint.Constraint{}, diag.Core[:i]...)
		rest = append(rest, diag.Core[i+1:]...)
		res, err := consistent(dtd.Teachers(), rest, &Options{SkipWitness: true})
		if err != nil {
			t.Fatalf("Consistent: %v", err)
		}
		if !res.Consistent {
			t.Errorf("core not minimal: still inconsistent without %s", diag.Core[i])
		}
	}
}

func TestDiagnoseEmptyDTD(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT db (foo)>
<!ELEMENT foo (foo)>
<!ATTLIST foo k CDATA #REQUIRED>
`)
	diag, err := diagnose(d, constraint.MustParse("foo.k -> foo"), nil)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if !diag.DTDEmpty {
		t.Error("D2-style DTD should be reported as unsatisfiable by itself")
	}
	if len(diag.Core) != 0 {
		t.Errorf("core should be empty when the DTD is the problem, got %v", diag.Core)
	}
}

func TestDiagnoseConsistentSpecErrors(t *testing.T) {
	if _, err := diagnose(dtd.Teachers(), constraint.MustParse("teacher.name -> teacher"), nil); err == nil {
		t.Error("Diagnose of a consistent specification should error")
	}
}

func TestDiagnoseRedundantInconsistency(t *testing.T) {
	// Two independent inconsistencies: the core keeps exactly one.
	d := dtd.MustParse(`
<!ELEMENT r (a, b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	// Each ¬key needs two nodes, but the DTD allows exactly one a and one b.
	set := constraint.MustParse("not a.x -> a\nnot b.y -> b")
	diag, err := diagnose(d, set, nil)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if len(diag.Core) != 1 {
		t.Errorf("core = %v, want exactly one of the two independent causes", diag.Core)
	}
}

func TestDiagnoseUndecidableClass(t *testing.T) {
	if _, err := diagnose(dtd.School(), constraint.Sigma3(), nil); err == nil {
		t.Error("Diagnose must refuse undecidable classes")
	}
}
