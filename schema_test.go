package xic

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestSchemaBindFlow covers the two-stage happy path: compile the DTD once,
// bind several constraint sets, and get the same verdicts as one-shot
// Compile.
func TestSchemaBindFlow(t *testing.T) {
	schema, err := CompileDTDString(teachersDTD)
	if err != nil {
		t.Fatalf("CompileDTDString: %v", err)
	}
	if !schema.ConsistentDTD() {
		t.Fatal("teachers DTD has valid trees")
	}
	if len(schema.Fingerprint()) != 64 {
		t.Errorf("schema fingerprint %q is not hex SHA-256", schema.Fingerprint())
	}

	ctx := context.Background()
	sigma, err := schema.BindStrings(sigma1)
	if err != nil {
		t.Fatalf("BindStrings: %v", err)
	}
	if sigma.Schema() != schema {
		t.Error("bound Spec does not report its Schema")
	}
	res, err := sigma.WithSolveOptions(WithSkipWitness()).Consistent(ctx)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Consistent {
		t.Error("Σ1 bound via Schema must stay inconsistent")
	}

	keys, err := schema.Bind(UnaryKey("teacher", "name"))
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	res, err = keys.Consistent(ctx)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent || res.Witness == nil {
		t.Error("keys-only set bound via Schema must be consistent with witness")
	}

	// Bind errors carry the constraints stage; the schema stays usable.
	_, err = schema.Bind(UnaryKey("teacher", "ghost"))
	var se *SpecError
	if !errors.As(err, &se) || se.Stage != "constraints" {
		t.Errorf("want SpecError{constraints}, got %v", err)
	}
	if _, err := schema.Bind(); err != nil {
		t.Errorf("schema unusable after a failed bind: %v", err)
	}

	// The two formattings of one DTD share the canonical fingerprint but
	// not the source fingerprint — the documented split.
	reformatted, err := CompileDTDString(teachersDTD + "\n\n")
	if err != nil {
		t.Fatalf("CompileDTDString: %v", err)
	}
	if reformatted.Fingerprint() != schema.Fingerprint() {
		t.Error("canonical schema fingerprints differ across formattings")
	}
	if FingerprintDTD(teachersDTD) == FingerprintDTD(teachersDTD+"\n\n") {
		t.Error("source fingerprints must be byte-exact")
	}
}

// TestSchemaBindConcurrent binds identical and distinct constraint sets
// from many goroutines against one Schema; run under -race this is the
// concurrency contract of Schema.Bind (satellite of the two-stage split).
// Singleflight dedup of identical binds is a registry property and is
// asserted in internal/registry's tests; here every Bind returns an
// independent, working Spec.
func TestSchemaBindConcurrent(t *testing.T) {
	schema, err := CompileDTDString(teachersDTD)
	if err != nil {
		t.Fatalf("CompileDTDString: %v", err)
	}
	ctx := context.Background()
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Identical set: the paper's Σ1, inconsistent.
				spec, err := schema.BindStrings(sigma1)
				if err != nil {
					errs <- err
					return
				}
				res, err := spec.WithSolveOptions(WithSkipWitness()).Consistent(ctx)
				if err != nil {
					errs <- err
					return
				}
				if res.Consistent {
					errs <- errors.New("Σ1 must stay inconsistent under concurrent Bind")
				}
				return
			}
			// Distinct singleton sets per goroutine.
			var c Constraint = UnaryKey("teacher", "name")
			if g%4 == 1 {
				c = UnaryKey("subject", "taught_by")
			}
			spec, err := schema.Bind(c)
			if err != nil {
				errs <- err
				return
			}
			res, err := spec.WithSolveOptions(WithSkipWitness()).Consistent(ctx)
			if err != nil {
				errs <- err
				return
			}
			if !res.Consistent {
				errs <- fmt.Errorf("keys-only set %v must be consistent", c)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSpecStatsSharingAudit is the WithSolveOptions copy audit:
// derived views deliberately share their parent's solver counters (they
// are views of one engine binding, recorded via atomics, so concurrent
// parent/child use is race-free and no update is lost), while separately
// bound Specs — even of the same Schema — keep independent counters. Run
// under -race this exercises parent and child concurrently.
func TestSpecStatsSharingAudit(t *testing.T) {
	schema, err := CompileDTDString(teachersDTD)
	if err != nil {
		t.Fatalf("CompileDTDString: %v", err)
	}
	parent, err := schema.BindStrings(sigma1)
	if err != nil {
		t.Fatalf("BindStrings: %v", err)
	}
	child := parent.WithSolveOptions(WithSkipWitness())
	pooled := parent.WithSolveOptions(WithSolverParallelism(2))

	ctx := context.Background()
	const rounds = 4
	var wg sync.WaitGroup
	for _, view := range []*Spec{parent, child, pooled} {
		wg.Add(1)
		go func(s *Spec) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := s.WithSolveOptions(WithSkipWitness()).Consistent(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(view)
	}
	wg.Wait()

	// Every view's checks landed in the shared counters, exactly once each:
	// an unsynchronised (non-atomic) implementation would lose updates here
	// and an unshared one would report rounds instead of 3×rounds.
	want := uint64(3 * rounds)
	for name, view := range map[string]*Spec{"parent": parent, "child": child, "pooled": pooled} {
		if got := view.SolveStats().Solves; got != want {
			t.Errorf("%s view sees %d solves, want %d (shared, lossless counters)", name, got, want)
		}
	}

	// A sibling binding of the same schema keeps its own counters: binding
	// state is per-Spec even though the compiled engine is shared.
	sibling, err := schema.BindStrings(sigma1)
	if err != nil {
		t.Fatalf("BindStrings: %v", err)
	}
	if got := sibling.SolveStats().Solves; got != 0 {
		t.Errorf("fresh sibling binding already has %d solves; engine stats leaked across Binds", got)
	}
}

// TestImplicationMemo: repeated implication queries against a stable
// schema are answered from the memoized cache — across Specs binding the
// same set — without poisoning results across options or constraint sets.
func TestImplicationMemo(t *testing.T) {
	schema, err := CompileDTDString(`
<!ELEMENT catalog (vendor*, offer*)>
<!ELEMENT vendor EMPTY>
<!ELEMENT offer EMPTY>
<!ATTLIST vendor vid CDATA #REQUIRED>
<!ATTLIST offer vid CDATA #REQUIRED>`)
	if err != nil {
		t.Fatalf("CompileDTDString: %v", err)
	}
	spec, err := schema.BindStrings("vendor.vid -> vendor\noffer.vid => vendor.vid")
	if err != nil {
		t.Fatalf("BindStrings: %v", err)
	}
	ctx := context.Background()
	phi := UnaryInclusion("offer", "vid", "vendor", "vid")

	imp, err := spec.Implies(ctx, phi)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if !imp.Implied {
		t.Fatal("restated Σ member must be implied")
	}
	st := schema.ImplCacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first query: %+v, want 1 miss, 0 hits, 1 entry", st)
	}

	// Second query on the same Spec: pure lookup.
	if imp, err = spec.Implies(ctx, phi); err != nil || !imp.Implied {
		t.Fatalf("second Implies: %v %v", imp, err)
	}
	if st = schema.ImplCacheStats(); st.Hits != 1 {
		t.Fatalf("after second query: %+v, want a hit", st)
	}

	// A different Spec binding the identical set shares the entries.
	twin, err := schema.BindStrings("vendor.vid -> vendor\noffer.vid => vendor.vid")
	if err != nil {
		t.Fatalf("BindStrings: %v", err)
	}
	if imp, err = twin.Implies(ctx, phi); err != nil || !imp.Implied {
		t.Fatalf("twin Implies: %v %v", imp, err)
	}
	if st = schema.ImplCacheStats(); st.Hits != 2 {
		t.Fatalf("twin binding missed the memo: %+v", st)
	}

	// Unimplied queries memoize their counterexample as a private copy:
	// mutating what one caller received must not corrupt later answers.
	notImplied := UnaryKey("offer", "vid")
	first, err := spec.Implies(ctx, notImplied)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if first.Implied || first.Counterexample == nil {
		t.Fatalf("offer.vid -> offer must fail with a counterexample: %+v", first)
	}
	first.Counterexample.Root.SetAttr("poisoned", "yes")
	second, err := spec.Implies(ctx, notImplied)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if second.Counterexample == nil {
		t.Fatal("memoized answer lost its counterexample")
	}
	if _, ok := second.Counterexample.Root.Attr("poisoned"); ok {
		t.Error("caller mutation reached the memoized counterexample")
	}
	if first.Counterexample == second.Counterexample {
		t.Error("memo handed out a shared counterexample tree")
	}

	// Different options (witness handling) key separate entries.
	skipping := spec.WithSolveOptions(WithSkipWitness())
	skipped, err := skipping.Implies(ctx, notImplied)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if skipped.Counterexample != nil {
		t.Error("SkipWitness view received a memoized counterexample from the witnessed entry")
	}

	// A different constraint set does not alias entries: under the empty
	// Σ the inclusion is no longer implied.
	empty, err := schema.Bind()
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if imp, err = empty.Implies(ctx, phi); err != nil {
		t.Fatalf("Implies: %v", err)
	} else if imp.Implied {
		t.Error("empty Σ wrongly implies the inclusion (memo aliased across constraint sets)")
	}
}
