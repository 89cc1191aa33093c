package doccheck

import (
	"context"
	"errors"
	"testing"

	"xic/internal/xmltree"
)

// treeDTD admits two adjacent text nodes under p and exactly one under q.
const treeDTD = `
<!ELEMENT r (p, q*)>
<!ELEMENT p (#PCDATA, #PCDATA)>
<!ELEMENT q (#PCDATA)>
<!ATTLIST q id CDATA #REQUIRED>
`

// TestRunTreeMatchesOracle compares RunTree with the tree oracle
// (xmltree.Validator, then constraint.SatisfiedAll) on programmatic trees,
// including shapes no parser produces: adjacent text nodes, and text nodes
// carrying attributes or children.
func TestRunTreeMatchesOracle(t *testing.T) {
	c := newChecker(t, treeDTD, "q.id -> q")
	text := xmltree.NewText
	el := xmltree.NewElement
	p := func() *xmltree.Node { return el("p").Append(text("a"), text("b")) }
	q := func(id string) *xmltree.Node { return el("q").SetAttr("id", id).Append(text("x")) }
	cases := []struct {
		name string
		root *xmltree.Node
		ok   bool
	}{
		{"valid", el("r").Append(p(), q("1"), q("2")), true},
		{"adjacent text nodes admitted", el("r").Append(el("p").Append(text("a"), text(" "))), true},
		{"adjacent text nodes rejected", el("r").Append(p(), el("q").SetAttr("id", "1").Append(text("x"), text("y"))), false},
		{"one text node where two are required", el("r").Append(el("p").Append(text("ab"))), false},
		{"text node with attributes", el("r").Append(el("p").Append(text("a"), text("b").SetAttr("id", "1"))), false},
		{"text node with children", el("r").Append(el("p").Append(text("a"), text("b").Append(el("q")))), false},
		{"undeclared label", el("r").Append(p(), el("z")), false},
		{"missing attribute", el("r").Append(p(), el("q").Append(text("x"))), false},
		{"extra attribute", el("r").Append(p(), q("1").SetAttr("zz", "v").SetAttr("aa", "w")), false},
		{"wrong root", el("p").Append(text("a"), text("b")), false},
		{"duplicate key", el("r").Append(p(), q("1"), q("1")), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := xmltree.NewTree(tc.root)
			oracle := oracleValid(c, tr)
			rep, err := c.RunTree(context.Background(), tr)
			if err != nil {
				t.Fatalf("RunTree: %v", err)
			}
			if rep.OK() != oracle || oracle != tc.ok {
				t.Fatalf("RunTree ok=%v, oracle ok=%v, want %v: %v", rep.OK(), oracle, tc.ok, rep.Violations)
			}
			for _, v := range rep.Violations {
				if v.Line != 0 || (v.Offset != 0 && v.Offset != -1) {
					t.Errorf("tree violation carries a source position: %+v", v)
				}
			}
		})
	}

	for _, tr := range []*xmltree.Tree{nil, xmltree.NewTree(nil)} {
		if xmltree.NewValidator(c.d).Validate(tr) == nil {
			t.Fatal("oracle accepted an empty tree")
		}
		var pe *xmltree.ParseError
		if _, err := c.RunTree(context.Background(), tr); !errors.As(err, &pe) {
			t.Errorf("RunTree(%v) = %v, want an *xmltree.ParseError", tr, err)
		}
	}
}

// TestRunTreeReportsUndeclaredAttributesInNameOrder pins the order that
// makes tree and stream reports identical: a map has no attribute order.
func TestRunTreeReportsUndeclaredAttributesInNameOrder(t *testing.T) {
	c := newChecker(t, treeDTD, "")
	doc := `<r><p>a<![CDATA[]]></p><q id="1" zz="v" aa="w">x</q></r>`
	rep := mustRun(t, c, doc)
	if len(rep.Violations) < 2 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	checkAgreement(t, c, doc)
	var got []string
	for _, v := range rep.Violations {
		got = append(got, v.Msg)
	}
	want := []string{
		`children of r/p[0] do not match content model #PCDATA, #PCDATA: sequence is incomplete`,
		`element r/q[0] has undeclared attribute "aa"`,
		`element r/q[0] has undeclared attribute "zz"`,
	}
	if len(got) != len(want) {
		t.Fatalf("messages = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("message %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRunTreeCanceled: an expired context aborts the walk before any work.
func TestRunTreeCanceled(t *testing.T) {
	c := newChecker(t, treeDTD, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := xmltree.NewTree(xmltree.NewElement("r"))
	if _, err := c.RunTree(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTree under a cancelled context = %v, want context.Canceled", err)
	}
}
