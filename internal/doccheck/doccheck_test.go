package doccheck

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// newChecker compiles a checker from textual DTD and constraint sources.
func newChecker(t testing.TB, dtdSrc, consSrc string) *Checker {
	t.Helper()
	d, err := dtd.Parse(dtdSrc)
	if err != nil {
		t.Fatalf("dtd: %v", err)
	}
	var sigma []constraint.Constraint
	if consSrc != "" {
		sigma, err = constraint.Parse(consSrc)
		if err != nil {
			t.Fatalf("constraints: %v", err)
		}
		if err := constraint.ValidateSet(d, sigma); err != nil {
			t.Fatalf("validate set: %v", err)
		}
	}
	v := xmltree.NewValidator(d)
	v.CompileAll()
	return New(d, v, sigma)
}

const dbDTD = `
<!ELEMENT db (rec*, ref*)>
<!ELEMENT rec EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST rec id CDATA #REQUIRED>
<!ATTLIST rec grp CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`

func mustRun(t *testing.T, c *Checker, doc string) *Report {
	t.Helper()
	rep, err := c.Run(context.Background(), strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestStreamKeyViolation(t *testing.T) {
	c := newChecker(t, dbDTD, "rec.id -> rec")
	rep := mustRun(t, c, `<db><rec id="1" grp="a"/><rec id="2" grp="a"/></db>`)
	if !rep.OK() {
		t.Fatalf("distinct ids flagged: %v", rep.Violations)
	}
	rep = mustRun(t, c, "<db>\n<rec id=\"1\" grp=\"a\"/>\n<rec id=\"1\" grp=\"b\"/>\n</db>")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one", rep.Violations)
	}
	v := rep.Violations[0]
	if v.Constraint == nil || v.Constraint.String() != "rec.id -> rec" {
		t.Errorf("violation constraint = %v", v.Constraint)
	}
	if v.Line != 3 {
		t.Errorf("violation line = %d, want 3 (the duplicating element)", v.Line)
	}
	if v.Path != "db/rec[1]" {
		t.Errorf("violation path = %q, want db/rec[1]", v.Path)
	}
	// The message is the same on a tree, which has no lines: it names the
	// earlier occurrence without its position.
	if v.Msg != "duplicate key: this rec agrees with an earlier rec on (id)" {
		t.Errorf("violation message = %q", v.Msg)
	}
}

func TestStreamForeignKeyForwardReference(t *testing.T) {
	c := newChecker(t, dbDTD, "ref.to => rec.id")
	// The referencing element precedes the referenced one: the index
	// resolves at end-of-document, so this must be valid. (Document order
	// is ref-after-rec in the DTD, so flip the DTD order instead.)
	c2 := newChecker(t, `
<!ELEMENT db (ref*, rec*)>
<!ELEMENT rec EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST rec id CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`, "ref.to => rec.id")
	rep := mustRun(t, c2, `<db><ref to="7"/><rec id="7"/></db>`)
	if !rep.OK() {
		t.Fatalf("forward reference flagged: %v", rep.Violations)
	}
	// Dangling reference.
	rep = mustRun(t, c, `<db><rec id="7" grp="a"/><ref to="8"/></db>`)
	if rep.OK() {
		t.Fatal("dangling ref.to accepted")
	}
	// Duplicate key on the referenced side.
	rep = mustRun(t, c, `<db><rec id="7" grp="a"/><rec id="7" grp="b"/><ref to="7"/></db>`)
	if rep.OK() {
		t.Fatal("foreign key with duplicate parent key accepted")
	}
}

func TestStreamInclusionAndNegations(t *testing.T) {
	c := newChecker(t, dbDTD, "ref.to <= rec.grp")
	if rep := mustRun(t, c, `<db><rec id="1" grp="a"/><rec id="2" grp="a"/><ref to="a"/></db>`); !rep.OK() {
		t.Fatalf("satisfied inclusion flagged: %v", rep.Violations)
	}
	if rep := mustRun(t, c, `<db><rec id="1" grp="a"/><ref to="b"/></db>`); rep.OK() {
		t.Fatal("unmatched inclusion value accepted")
	}

	nk := newChecker(t, dbDTD, "not rec.grp -> rec")
	if rep := mustRun(t, nk, `<db><rec id="1" grp="a"/><rec id="2" grp="a"/></db>`); !rep.OK() {
		t.Fatalf("witnessed negated key flagged: %v", rep.Violations)
	}
	if rep := mustRun(t, nk, `<db><rec id="1" grp="a"/><rec id="2" grp="b"/></db>`); rep.OK() {
		t.Fatal("unwitnessed negated key accepted")
	}

	ni := newChecker(t, dbDTD, "not ref.to <= rec.id")
	if rep := mustRun(t, ni, `<db><rec id="1" grp="a"/><ref to="9"/></db>`); !rep.OK() {
		t.Fatalf("witnessed negated inclusion flagged: %v", rep.Violations)
	}
	if rep := mustRun(t, ni, `<db><rec id="1" grp="a"/><ref to="1"/></db>`); rep.OK() {
		t.Fatal("fully-matched negated inclusion accepted")
	}
	// No ref elements at all: the inclusion holds vacuously, so its
	// negation is violated — matching constraint.Satisfied.
	if rep := mustRun(t, ni, `<db><rec id="1" grp="a"/></db>`); rep.OK() {
		t.Fatal("vacuously-holding inclusion's negation accepted")
	}
}

func TestStreamConformanceViolations(t *testing.T) {
	c := newChecker(t, `
<!ELEMENT r (a, b?)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b EMPTY>
<!ATTLIST b k CDATA #REQUIRED>
`, "")
	cases := []struct {
		name, doc, want string
	}{
		{"wrong root", `<x/>`, "root is"},
		{"undeclared type", `<r><a>t</a><c/></r>`, "not declared"},
		{"missing required attr", `<r><a>t</a><b/></r>`, "lacks required attribute"},
		{"undeclared attr", `<r><a>t</a><b k="1" z="2"/></r>`, "undeclared attribute"},
		{"bad child order", `<r><b k="1"/><a>t</a></r>`, "do not match content model"},
		{"incomplete sequence", `<r/>`, "incomplete"},
		{"unexpected text", `<r>stray<a>t</a></r>`, "unexpected text content"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustRun(t, c, tc.doc)
			if rep.OK() {
				t.Fatalf("document accepted: %s", tc.doc)
			}
			found := false
			for _, v := range rep.Violations {
				if strings.Contains(v.Msg, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no violation mentions %q: %v", tc.want, rep.Violations)
			}
		})
	}
	if rep := mustRun(t, c, `<r><a>text</a><b k="1"/></r>`); !rep.OK() {
		t.Fatalf("valid document flagged: %v", rep.Violations)
	}
}

func TestStreamHardErrors(t *testing.T) {
	c := newChecker(t, dbDTD, "")
	for _, doc := range []string{
		``,
		`<db/><db/>`,
		`<db/>stray`,
		`<db><rec id="1" grp="a">`,
		`<db><rec a:id="1" b:id="2" grp="g"/></db>`,
	} {
		if _, err := c.Run(context.Background(), strings.NewReader(doc)); err == nil {
			t.Errorf("Run(%q) succeeded, want hard error", doc)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	c := newChecker(t, dbDTD, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, `<rec id="%d" grp="g"/>`, i)
	}
	b.WriteString("</db>")
	if _, err := c.Run(ctx, strings.NewReader(b.String())); err == nil {
		t.Fatal("cancelled Run succeeded")
	}
}

func TestStreamViolationCap(t *testing.T) {
	c := newChecker(t, dbDTD, "rec.id -> rec")
	c.MaxViolations = 5
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 100; i++ {
		b.WriteString(`<rec id="same" grp="g"/>`)
	}
	b.WriteString("</db>")
	rep := mustRun(t, c, b.String())
	if len(rep.Violations) != 5 || !rep.Truncated {
		t.Fatalf("violations = %d truncated = %v, want 5/true", len(rep.Violations), rep.Truncated)
	}
	if rep.OK() {
		t.Fatal("truncated report lost the verdict")
	}
}

// verdicts computes the tree-path and stream-path verdicts for one
// document. parseOK reports whether the document was checkable at all;
// valid is only meaningful when parseOK.
// oracleValid is the tree pipeline's verdict: DTD conformance by
// xmltree.Validator, then every constraint by constraint.SatisfiedAll.
func oracleValid(c *Checker, tr *xmltree.Tree) bool {
	if xmltree.NewValidator(c.d).Validate(tr) != nil {
		return false
	}
	ok, _ := constraint.SatisfiedAll(tr, c.sigma)
	return ok
}

// sameReports fails unless two reports agree on OK, Elements and every
// violation's constraint, path and message.
func sameReports(t *testing.T, tree, stream *Report, doc string) {
	t.Helper()
	if tree.OK() != stream.OK() || tree.Elements != stream.Elements || len(tree.Violations) != len(stream.Violations) {
		t.Fatalf("reports differ: RunTree ok=%v elements=%d %v, Run ok=%v elements=%d %v on:\n%s",
			tree.OK(), tree.Elements, tree.Violations, stream.OK(), stream.Elements, stream.Violations, doc)
	}
	for i, tv := range tree.Violations {
		sv := stream.Violations[i]
		if fmt.Sprint(tv.Constraint) != fmt.Sprint(sv.Constraint) || tv.Path != sv.Path || tv.Msg != sv.Msg {
			t.Fatalf("violation %d differs: RunTree %v, Run %v on:\n%s", i, tv, sv, doc)
		}
	}
}

// checkAgreement asserts four sides agree on a document: Run on its
// bytes, RunRetain on its bytes, RunTree on its parsed tree, and the tree
// oracle. The parse verdicts and the validity verdicts must match, Run
// and RunRetain must return the same Report, and RunTree's must be the
// same but for source positions. For a valid document RunRetain's tree
// must be the parsed tree and its checkpoints those of fresh runs.
func checkAgreement(t *testing.T, c *Checker, doc string) {
	t.Helper()
	tr, treeErr := xmltree.Parse(strings.NewReader(doc))
	rep, streamErr := c.Run(context.Background(), strings.NewReader(doc))
	retRep, kept, retErr := c.RunRetain(context.Background(), strings.NewReader(doc))
	if (treeErr == nil) != (streamErr == nil) || (retErr == nil) != (streamErr == nil) {
		t.Fatalf("parse verdicts differ: tree=%v stream=%v retain=%v on:\n%s", treeErr, streamErr, retErr, doc)
	}
	if treeErr != nil {
		return
	}
	if oracle := oracleValid(c, tr); oracle != rep.OK() {
		t.Fatalf("validity verdicts differ: tree=%v stream=%v on:\n%s", oracle, rep.OK(), doc)
	}
	if !reflect.DeepEqual(retRep, rep) {
		t.Fatalf("reports differ: RunRetain %+v, Run %+v on:\n%s", retRep, rep, doc)
	}
	if (kept != nil) != rep.OK() {
		t.Fatalf("RunRetain retained %v for a document with OK=%v on:\n%s", kept != nil, rep.OK(), doc)
	}
	if kept != nil {
		checkRetained(t, c, tr, kept, doc)
	}
	fromTree, err := c.RunTree(context.Background(), tr)
	if err != nil {
		t.Fatalf("RunTree: %v on:\n%s", err, doc)
	}
	sameReports(t, fromTree, rep, doc)
}

// checkRetained fails unless RunRetain's tree equals the parsed tree node
// for node (labels, attribute maps, text values, child order) and holds
// exactly one checkpoint per element, equal to a fresh run of the
// element's content model stepped over its children.
func checkRetained(t *testing.T, c *Checker, parsed *xmltree.Tree, kept *Retained, doc string) {
	t.Helper()
	if !reflect.DeepEqual(kept.Tree, parsed) {
		t.Fatalf("retained tree differs from the parsed tree:\n%s\nwant:\n%s\non:\n%s",
			xmltree.Serialize(kept.Tree), xmltree.Serialize(parsed), doc)
	}
	elements := 0
	kept.Tree.Walk(func(n *xmltree.Node) bool {
		if n.IsText() {
			return false
		}
		elements++
		got, ok := kept.Checkpoints[n]
		if !ok {
			t.Fatalf("no checkpoint for %s on:\n%s", kept.Tree.Path(n), doc)
		}
		r := c.v.Automaton(n.Label).Start()
		for _, ch := range n.Children {
			r.Step(ch.Label)
		}
		if want := r.Save(); !sameCheckpoint(got, want) {
			t.Fatalf("checkpoint of %s is %+v, a fresh run gives %+v on:\n%s", kept.Tree.Path(n), got, want, doc)
		}
		return true
	})
	if len(kept.Checkpoints) != elements {
		t.Fatalf("%d checkpoints for %d elements on:\n%s", len(kept.Checkpoints), elements, doc)
	}
}

// sameCheckpoint reports whether two checkpoints hold the same automaton
// state. Before the first symbol a run's position set is unused (and a
// reused run's is stale), so only the length is compared there.
func sameCheckpoint(a, b *dtd.State) bool {
	if a.Len() == 0 || b.Len() == 0 {
		return a.Len() == b.Len()
	}
	return reflect.DeepEqual(a, b)
}

// TestStreamMatchesTreeOnFigure1 pins the paper's own example.
func TestStreamMatchesTreeOnFigure1(t *testing.T) {
	d := dtd.Teachers()
	v := xmltree.NewValidator(d)
	v.CompileAll()
	c := New(d, v, constraint.Sigma1())
	doc := xmltree.Serialize(xmltree.Figure1())
	checkAgreement(t, c, doc)
	rep := mustRun(t, c, doc)
	if rep.OK() {
		t.Fatal("Figure 1 must violate Σ1")
	}
}

// TestRunRetainMatchesParse runs the four-sided agreement on documents
// whose text is split by comments, CDATA sections and references, whose
// attributes are prefixed, and whose content is mixed, valid and not.
func TestRunRetainMatchesParse(t *testing.T) {
	c := newChecker(t, `
<!ELEMENT doc (para+, note*)>
<!ELEMENT para (#PCDATA | em)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT note EMPTY>
<!ATTLIST para id CDATA #REQUIRED>
<!ATTLIST note ref CDATA #REQUIRED>
`, "para.id -> para\nnote.ref => para.id")
	for _, doc := range []string{
		`<doc><para id="p1">one <!-- split --> two<![CDATA[ <three> ]]>four &amp; five&#33;</para></doc>`,
		`<doc xmlns:x="urn:x"><para x:id="p1">mixed <em>emphasis</em> tail<?pi?><em>again</em>end</para><note x:ref="p1"/></doc>`,
		"<doc>\n  <para id=\"p1\">\n    <em>a</em>\n  </para>\n  <para id=\"p2\"/>\n</doc>",
		`<doc><para id="p1">text</para><note ref="p9"/></doc>`,
		`<doc><para id="p1">text</para><para id="p1">more text</para></doc>`,
		`<doc><para id="p1"><note ref="p1"/></para></doc>`,
	} {
		checkAgreement(t, c, doc)
	}
}

// TestStreamMatchesTreeRandomized drives randomly grown and randomly
// corrupted documents through both paths and requires identical verdicts.
func TestStreamMatchesTreeRandomized(t *testing.T) {
	c := newChecker(t, `
<!ELEMENT db (grp+)>
<!ELEMENT grp (rec*, ref*)>
<!ELEMENT rec (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST grp name CDATA #REQUIRED>
<!ATTLIST rec id CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`, "rec.id -> rec\nref.to => rec.id\ngrp.name -> grp")
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		var b strings.Builder
		b.WriteString("<db>")
		groups := 1 + rng.Intn(3)
		for g := 0; g < groups; g++ {
			fmt.Fprintf(&b, `<grp name="g%d">`, rng.Intn(4))
			for r := 0; r < rng.Intn(4); r++ {
				fmt.Fprintf(&b, `<rec id="i%d">text</rec>`, rng.Intn(6))
			}
			for r := 0; r < rng.Intn(3); r++ {
				fmt.Fprintf(&b, `<ref to="i%d"/>`, rng.Intn(8))
			}
			b.WriteString("</grp>")
		}
		b.WriteString("</db>")
		doc := b.String()
		if rng.Intn(3) == 0 {
			// Corrupt the document: drop a random slice of bytes.
			i := rng.Intn(len(doc))
			j := i + 1 + rng.Intn(10)
			if j > len(doc) {
				j = len(doc)
			}
			doc = doc[:i] + doc[j:]
		}
		checkAgreement(t, c, doc)
	}
}

// FuzzStreamMatchesTree requires verdict agreement between the streaming
// checker and the tree pipeline on arbitrary byte inputs.
func FuzzStreamMatchesTree(f *testing.F) {
	f.Add(`<db><rec id="1" grp="a"/><ref to="a"/></db>`)
	f.Add(`<db><rec id="1" grp="a"/><rec id="1" grp="b"/></db>`)
	f.Add(`<db>`)
	f.Add(`<db/><db/>`)
	f.Add("<db>\n  <rec id=\"1\" grp=\"a\"/>\n</db>")
	d, err := dtd.Parse(dbDTD)
	if err != nil {
		f.Fatal(err)
	}
	sigma := constraint.MustParse("rec.id -> rec\nref.to <= rec.grp\nnot rec.grp -> rec")
	v := xmltree.NewValidator(d)
	v.CompileAll()
	c := New(d, v, sigma)
	f.Fuzz(func(t *testing.T, doc string) {
		checkAgreement(t, c, doc)
	})
}
