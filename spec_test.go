package xic

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"xic/internal/dtd"
	"xic/internal/reduction"
)

// TestSpecConcurrentUse shares one compiled Spec between many goroutines
// mixing every serving method; run under -race this is the concurrency
// contract of the API. The per-DTD state (simplification, encoding
// template, conformance automata) is compiled once and only read
// afterwards, so no synchronisation beyond Compile is needed by callers.
func TestSpecConcurrentUse(t *testing.T) {
	spec := mustSpec(t, teachersDTD, sigma1)
	keysOnly, err := ParseConstraints("teacher.name -> teacher\nsubject.taught_by -> subject")
	if err != nil {
		t.Fatalf("ParseConstraints: %v", err)
	}
	doc, err := ParseDocumentString(`
<teachers>
  <teacher name="Joe">
    <teach>
      <subject taught_by="a">XML</subject>
      <subject taught_by="b">DB</subject>
    </teach>
    <research>Web DB</research>
  </teacher>
</teachers>`)
	if err != nil {
		t.Fatalf("ParseDocumentString: %v", err)
	}

	const goroutines = 12
	const rounds = 5
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (g + r) % 4 {
				case 0:
					res, err := spec.Consistent(ctx)
					if err != nil {
						errs <- err
					} else if res.Consistent {
						errs <- errors.New("Σ1 must stay inconsistent under concurrency")
					}
				case 1:
					res, err := spec.WithSolveOptions(WithSkipWitness()).ConsistentWith(ctx)
					if err != nil {
						errs <- err
					} else if res.Consistent {
						errs <- errors.New("ConsistentWith(Σ1) must stay inconsistent")
					}
				case 2:
					imp, err := spec.Implies(ctx, UnaryKey("teacher", "name"))
					if err != nil {
						errs <- err
					} else if !imp.Implied {
						errs <- errors.New("Σ1 must imply its own member")
					}
				case 3:
					// Validate only checks DTD conformance plus the two keys
					// the document satisfies; the inconsistent Σ1 makes every
					// document fail on the foreign key, which is also a
					// deterministic answer.
					if err := reportErr(spec.Validate(context.Background(), doc)); err == nil {
						errs <- errors.New("no document can satisfy the inconsistent Σ1")
					}
				}
			}
		}(g)
	}
	// A second spec sharing the DTD exercises independent compiled state,
	// and the keys-only set exercises the linear path concurrently.
	d, _ := ParseDTD(teachersDTD)
	spec2, err := Compile(d, keysOnly...)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := spec2.Consistent(ctx)
			if err != nil {
				errs <- err
				return
			}
			if !res.Consistent || res.Witness == nil {
				errs <- errors.New("keys-only set must be consistent with witness")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// hardLIPSpec builds an NP consistency instance whose very first LP
// relaxation takes far longer than the deadlines used in the cancellation
// tests (an exact-rational simplex on a dense random 0/1-LIP gadget).
func hardLIPSpec(t *testing.T) *Spec {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const m, n, pct = 5, 30, 40
	a := make([][]int, m)
	for i := range a {
		a[i] = make([]int, n)
		for j := range a[i] {
			if rng.Intn(100) < pct {
				a[i][j] = 1
			}
		}
	}
	lip, err := reduction.LIPToSpec(a)
	if err != nil {
		t.Fatalf("LIPToSpec: %v", err)
	}
	spec, err := Compile(lip.DTD, lip.Sigma...)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Presolve decides this gadget family without ever reaching the simplex,
	// which is exactly what these tests must not let happen: they exercise
	// cancellation inside the LP pivot loop, so pin the raw search.
	return spec.WithSolveOptions(WithSkipWitness(), WithoutPresolve())
}

// TestSpecCancellation proves a context deadline aborts an NP-class
// Consistent call promptly with ErrCanceled instead of running the search
// to completion (the uncancelled instance runs for minutes).
func TestSpecCancellation(t *testing.T) {
	spec := hardLIPSpec(t)
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := spec.Consistent(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should also match context.DeadlineExceeded: %v", err)
	}
	// The deadline reaches inside the LP pivot loop, so the overshoot is
	// bounded by one pivot, not by a full node or solve.
	if elapsed > 30*time.Second {
		t.Errorf("cancellation took %v; deadline was 250ms", elapsed)
	}
}

// TestSpecCancellationPreCancelled: an already-cancelled context fails fast
// before any solving, and matches both sentinels.
func TestSpecCancellationPreCancelled(t *testing.T) {
	spec := mustSpec(t, teachersDTD, sigma1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := spec.Consistent(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled ∧ context.Canceled, got %v", err)
	}
	if _, err := spec.Implies(ctx, UnaryKey("teacher", "name")); !errors.Is(err, ErrCanceled) {
		t.Errorf("Implies should honor a cancelled context, got %v", err)
	}
}

// TestConsistentAll covers the batch path: many constraint sets sharing
// one compiled encoding, answers in input order.
func TestConsistentAll(t *testing.T) {
	d, err := ParseDTD(teachersDTD)
	if err != nil {
		t.Fatalf("ParseDTD: %v", err)
	}
	base, err := Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sigma, _ := ParseConstraints(sigma1)
	keysOnly, _ := ParseConstraints("teacher.name -> teacher")
	invalid := []Constraint{UnaryKey("teacher", "ghost")} // undeclared attribute

	sets := [][]Constraint{sigma, keysOnly, nil, invalid}
	got := base.WithSolveOptions(WithSkipWitness()).ConsistentAll(context.Background(), sets)
	if len(got) != len(sets) {
		t.Fatalf("got %d results for %d sets", len(got), len(sets))
	}
	if got[0].Err != nil || got[0].Result.Consistent {
		t.Errorf("sets[0] = Σ1 must be inconsistent: %+v", got[0])
	}
	if got[1].Err != nil || !got[1].Result.Consistent {
		t.Errorf("sets[1] = keys-only must be consistent: %+v", got[1])
	}
	if got[2].Err != nil || !got[2].Result.Consistent {
		t.Errorf("sets[2] = ∅ must be consistent: %+v", got[2])
	}
	if got[3].Err == nil || !strings.Contains(got[3].Err.Error(), "ghost") {
		t.Errorf("sets[3] must fail per item on the undeclared attribute, got %+v", got[3])
	}

	// Parallelism is a per-view knob; a serial view must agree.
	serial := base.WithSolveOptions(WithSkipWitness()).WithSolveOptions(WithSolverParallelism(1)).ConsistentAll(context.Background(), sets)
	for i := range got {
		gotOK := got[i].Err == nil && got[i].Result.Consistent
		serialOK := serial[i].Err == nil && serial[i].Result.Consistent
		if gotOK != serialOK {
			t.Errorf("parallel and serial batch disagree at %d", i)
		}
	}
}

// TestImpliesAll covers batched implication on the mediator example of the
// paper's introduction.
func TestImpliesAll(t *testing.T) {
	spec := mustSpec(t, `
<!ELEMENT catalog (vendor*, offer*)>
<!ELEMENT vendor EMPTY>
<!ELEMENT offer EMPTY>
<!ATTLIST vendor vid CDATA #REQUIRED>
<!ATTLIST offer vid CDATA #REQUIRED>`, `
vendor.vid -> vendor
offer.vid => vendor.vid`)
	phis := []Constraint{
		UnaryInclusion("offer", "vid", "vendor", "vid"), // restates Σ
		UnaryKey("offer", "vid"),                        // not guaranteed
	}
	got := spec.ImpliesAll(context.Background(), phis)
	if got[0].Err != nil || !got[0].Implication.Implied {
		t.Errorf("phi[0] must be implied: %+v", got[0])
	}
	if got[1].Err != nil || got[1].Implication.Implied {
		t.Errorf("phi[1] must not be implied: %+v", got[1])
	}
	if got[1].Implication != nil && got[1].Implication.Counterexample == nil {
		t.Errorf("unimplied phi should carry a counterexample")
	}
}

// TestBatchCancellation: cancelling the batch context surfaces ErrCanceled
// per item rather than hanging or panicking.
func TestBatchCancellation(t *testing.T) {
	spec := mustSpec(t, teachersDTD, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sigma, _ := ParseConstraints(sigma1)
	for i, ans := range spec.ConsistentAll(ctx, [][]Constraint{sigma, sigma}) {
		if !errors.Is(ans.Err, ErrCanceled) {
			t.Errorf("item %d: want ErrCanceled, got %+v", i, ans)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	// DTD error: the bogus token sits on line 3.
	_, err := ParseDTD("<!ELEMENT a (b)>\n<!ELEMENT b EMPTY>\n<!BOGUS a EMPTY>\n")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Input != "dtd" || pe.Line != 3 {
		t.Errorf("ParseError = %+v, want dtd line 3", pe)
	}
	if pe.Offset <= 0 {
		t.Errorf("ParseError offset = %d, want a real byte offset", pe.Offset)
	}

	// Constraint error: the malformed line is line 2 of the source.
	_, err = ParseConstraints("a.x -> a\nnonsense here\n")
	pe = nil
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Input != "constraints" || pe.Line != 2 {
		t.Errorf("ParseError = %+v, want constraints line 2", pe)
	}
	if pe.Offset != len("a.x -> a\n") {
		t.Errorf("ParseError offset = %d, want start of line 2", pe.Offset)
	}

	// Document error: unclosed element.
	_, err = ParseDocumentString("<a><b></a>")
	pe = nil
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Input != "document" {
		t.Errorf("ParseError = %+v, want document input", pe)
	}
}

func TestSpecErrorStages(t *testing.T) {
	// DTD stage: content model references an undeclared element type, which
	// DTD.Check rejects at compile time.
	bad := dtd.New("r")
	bad.AddElement("r", dtd.Name{Type: "ghost"})
	_, err := Compile(bad)
	var se *SpecError
	if !errors.As(err, &se) || se.Stage != "dtd" {
		t.Errorf("want SpecError stage dtd, got %v", err)
	}

	// Constraints stage: constraint over an undeclared attribute.
	d, _ := ParseDTD(teachersDTD)
	_, err = Compile(d, UnaryKey("teacher", "ghost"))
	se = nil
	if !errors.As(err, &se) || se.Stage != "constraints" {
		t.Errorf("want SpecError stage constraints, got %v", err)
	}

	// Nil DTD.
	_, err = Compile(nil)
	se = nil
	if !errors.As(err, &se) || se.Stage != "dtd" {
		t.Errorf("want SpecError stage dtd for nil DTD, got %v", err)
	}
	if !strings.Contains(err.Error(), "compile") {
		t.Errorf("SpecError message should mention compile: %v", err)
	}
}

func TestWithOptionsDerivation(t *testing.T) {
	spec := mustSpec(t, teachersDTD, "teacher.name -> teacher")
	skipping := spec.WithSolveOptions(WithSkipWitness())

	res, err := skipping.Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Witness != nil {
		t.Error("SkipWitness view must not build witnesses")
	}
	// The original view is unchanged and still builds witnesses.
	res, err = spec.Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Witness == nil {
		t.Error("original view must still build witnesses")
	}
}

func TestSpecDiagnose(t *testing.T) {
	spec := mustSpec(t, teachersDTD, sigma1)
	diag, err := spec.Diagnose(context.Background())
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if diag.DTDEmpty {
		t.Fatal("D1 has valid trees")
	}
	// The subject key plus the foreign key alone are already inconsistent
	// with D1, so the minimal core has exactly two members.
	if len(diag.Core) != 2 {
		t.Errorf("minimal core = %v, want 2 members", diag.Core)
	}
}
