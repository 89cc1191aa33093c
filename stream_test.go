package xic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/randgen"
	"xic/internal/xmltree"
)

// streamBenchDTD is the scalable workload shape shared by the equivalence
// tests and the streaming benchmarks: groups of fixed fan-out under a
// starred root, a key on the group and plain attributes below it, so the
// constraint index holds one entry per group while the tree holds every
// node.
const streamBenchDTD = `
<!ELEMENT lib (grp*)>
<!ELEMENT grp (item, item, item, item)>
<!ELEMENT item EMPTY>
<!ATTLIST grp id CDATA #REQUIRED>
<!ATTLIST item val CDATA #REQUIRED>
`

const streamBenchXIC = "grp.id -> grp"

func compileStream(t testing.TB, dtdSrc, consSrc string) *Spec {
	t.Helper()
	spec, err := CompileStrings(dtdSrc, consSrc)
	if err != nil {
		t.Fatalf("CompileStrings: %v", err)
	}
	return spec
}

// sameReport validates doc both ways — ValidateStream on the bytes,
// Validate on the parsed tree — and fails unless the two Reports agree on
// OK, Elements and every violation's constraint, path and message; only
// source positions differ. It returns the streamed Report.
func sameReport(t testing.TB, spec *Spec, doc []byte) *Report {
	t.Helper()
	ctx := context.Background()
	stream, err := spec.ValidateStream(ctx, bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("ValidateStream: %v", err)
	}
	tree, err := ParseDocument(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	fromTree, err := spec.Validate(ctx, tree)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if fromTree.OK() != stream.OK() || fromTree.Elements != stream.Elements ||
		len(fromTree.Violations) != len(stream.Violations) {
		t.Fatalf("reports differ: tree ok=%v elements=%d %v, stream ok=%v elements=%d %v",
			fromTree.OK(), fromTree.Elements, fromTree.Violations, stream.OK(), stream.Elements, stream.Violations)
	}
	for i, tv := range fromTree.Violations {
		sv := stream.Violations[i]
		if fmt.Sprint(tv.Constraint) != fmt.Sprint(sv.Constraint) || tv.Path != sv.Path || tv.Msg != sv.Msg {
			t.Fatalf("violation %d differs: tree %v, stream %v", i, tv, sv)
		}
		if tv.Line != 0 || (tv.Offset != 0 && tv.Offset != -1) {
			t.Fatalf("tree violation %d carries a source position: %+v", i, tv)
		}
	}
	return stream
}

// genDoc renders a pseudo-random conforming document of about n element
// nodes. pool 0 makes attribute values unique (keys hold).
func genDoc(t testing.TB, dtdSrc string, n, pool int, seed int64) []byte {
	t.Helper()
	d, err := dtd.Parse(dtdSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := randgen.WriteDocument(&buf, d, rand.New(rand.NewSource(seed)), randgen.DocSpec{
		TargetNodes: n, ValuePool: pool,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateStreamMatchesValidateOnFixtures checks the shipped specs:
// the streaming verdict must equal Parse+Validate on the same bytes.
func TestValidateStreamMatchesValidateOnFixtures(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("specs", name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(data)
	}
	school := compileStream(t, read("school.dtd"), read("school.xic"))
	rep := sameReport(t, school, []byte(read("school.xml")))
	if !rep.OK() {
		t.Errorf("specs/school.xml must stream-validate: %v", rep.Violations)
	}

	// The paper's Figure 1 document violates Σ1; both paths must say so.
	teachers, err := Compile(dtd.Teachers(), constraint.Sigma1()...)
	if err != nil {
		t.Fatal(err)
	}
	if rep := sameReport(t, teachers, []byte(xmltree.Serialize(xmltree.Figure1()))); rep.OK() {
		t.Error("Figure 1 must violate Σ1")
	}
	if rep, err := teachers.Validate(context.Background(), xmltree.Figure1()); err != nil || rep.OK() {
		t.Errorf("Figure 1 must violate Σ1 under tree validation: %v %v", rep, err)
	}
}

// TestValidateStreamMatchesValidateOnGenerated drives generated documents
// of several sizes and value pools through both paths; verdicts must agree
// even when collisions make the documents invalid.
func TestValidateStreamMatchesValidateOnGenerated(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC+"\nitem.val <= grp.id\n")
	for _, n := range []int{50, 2000} {
		for _, pool := range []int{0, 5} {
			t.Run(fmt.Sprintf("n=%d/pool=%d", n, pool), func(t *testing.T) {
				sameReport(t, spec, genDoc(t, streamBenchDTD, n, pool, int64(n+pool)))
			})
		}
	}
}

// TestValidateStreamParseErrors pins the public error taxonomy for
// unparseable streamed documents: *ParseError with a real line and offset.
func TestValidateStreamParseErrors(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	cases := []struct {
		name, doc string
		wantLine  int
	}{
		{"syntax", "<lib>\n<grp id=\"1\"", 2},
		{"multiple roots", "<lib/>\n<lib/>", 2},
		{"attr collision", "<lib>\n<grp a:id=\"1\" b:id=\"2\"><item val=\"v\"/><item val=\"v\"/><item val=\"v\"/><item val=\"v\"/></grp></lib>", 2},
		{"chardata outside root", "<lib/>\nstray", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := spec.ValidateStream(context.Background(), strings.NewReader(tc.doc))
			if err == nil {
				t.Fatal("ValidateStream succeeded on unparseable input")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not *ParseError", err, err)
			}
			if pe.Input != "document" {
				t.Errorf("Input = %q", pe.Input)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("Line = %d, want %d (%v)", pe.Line, tc.wantLine, pe)
			}
			if pe.Offset < 0 {
				t.Errorf("Offset = %d, want >= 0", pe.Offset)
			}
		})
	}
}

// TestValidateStreamCanceled checks the cancellation taxonomy.
func TestValidateStreamCanceled(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	doc := genDoc(t, streamBenchDTD, 20000, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := spec.ValidateStream(ctx, bytes.NewReader(doc))
	if err == nil {
		t.Fatal("cancelled ValidateStream succeeded")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v must match ErrCanceled and context.Canceled", err)
	}
}

// TestSolveErrorsBecomeSpecErrors pins the Spec-boundary mapping for the
// solver's internal-error path (the former simplex phase-1 panic): it must
// surface as a *SpecError with Stage "solve".
func TestSolveErrorsBecomeSpecErrors(t *testing.T) {
	err := wrapSolveError(fmt.Errorf("search failed: %w", ilp.ErrInternal))
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("wrapSolveError did not produce a *SpecError: %v", err)
	}
	if se.Stage != "solve" {
		t.Errorf("Stage = %q, want solve", se.Stage)
	}
	if !errors.Is(err, ilp.ErrInternal) {
		t.Error("wrapped error lost the ErrInternal sentinel")
	}
	if !strings.Contains(se.Error(), "solve") {
		t.Errorf("Error() = %q", se.Error())
	}
	// Ordinary errors pass through untouched.
	plain := errors.New("plain")
	if got := wrapSolveError(plain); got != plain {
		t.Errorf("wrapSolveError(plain) = %v", got)
	}
	if wrapSolveError(nil) != nil {
		t.Error("wrapSolveError(nil) != nil")
	}
}

// TestValidateStreamConcurrent shares one Spec across goroutines; run
// under -race this proves the streaming path doesn't serialize or trample
// shared state.
func TestValidateStreamConcurrent(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	doc := genDoc(t, streamBenchDTD, 3000, 0, 2)
	sameReport(t, spec, doc)
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 5; i++ {
				rep, err := spec.ValidateStream(context.Background(), bytes.NewReader(doc))
				if err == nil && !rep.OK() {
					err = rep.Err()
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidateStreamAllocs pins the streaming hot path at no more than one
// heap allocation per element on valid documents: tokens are byte views,
// element and attribute names are symbols, and the only per-element
// allocation is the one copy of an attribute value a constraint index
// keeps, shared by every index that reads it.
func TestValidateStreamAllocs(t *testing.T) {
	var teachers strings.Builder
	teachers.WriteString("<teachers>\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&teachers, `  <teacher name="t%d"><teach><subject taught_by="t%d">s</subject>`+
			`<subject taught_by="t%d">s</subject></teach><research>r</research></teacher>`+"\n", i, i, i)
	}
	teachers.WriteString("</teachers>\n")
	teachersDTD, err := os.ReadFile(filepath.Join("specs", "teachers.dtd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, dtd, cons string
		doc             []byte
	}{
		{"lib", streamBenchDTD, streamBenchXIC, genDoc(t, streamBenchDTD, 20_000, 0, 7)},
		// Σ1 without the subject key, which D1 makes unsatisfiable.
		{"teachers", string(teachersDTD), "teacher.name -> teacher\nsubject.taught_by => teacher.name", []byte(teachers.String())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := compileStream(t, tc.dtd, tc.cons)
			ctx := context.Background()
			var elements int
			allocs := testing.AllocsPerRun(5, func() {
				rep, err := spec.ValidateStream(ctx, bytes.NewReader(tc.doc))
				if err != nil || !rep.OK() {
					t.Fatalf("document rejected: %v %v", err, rep.Err())
				}
				elements = rep.Elements
			})
			perElement := allocs / float64(elements)
			t.Logf("%d elements, %.0f allocations, %.3f per element", elements, allocs, perElement)
			if perElement > 1 {
				t.Errorf("%.3f allocations per element, want at most 1", perElement)
			}
		})
	}
}

// TestImpliedAttributesAreRequired pins the model's reading of attribute
// defaults: every declared attribute is required, #IMPLIED included, on
// both the tree and the streaming path.
func TestImpliedAttributesAreRequired(t *testing.T) {
	spec := compileStream(t, "<!ELEMENT a EMPTY>\n<!ATTLIST a id CDATA #IMPLIED>", "")
	if rep := sameReport(t, spec, []byte(`<a/>`)); rep.OK() || !strings.Contains(rep.Violations[0].Msg, "lacks required attribute") {
		t.Errorf("<a/>: %v, want a missing-attribute violation", rep.Violations)
	}
	if rep := sameReport(t, spec, []byte(`<a id="1"/>`)); !rep.OK() {
		t.Errorf("<a id=\"1\"/>: %v", rep.Violations)
	}
}
