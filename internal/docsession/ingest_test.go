package docsession

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// ingestDTD mixes text and elements under para, so the retained tree has
// coalesced text runs on both sides of element children.
const ingestDTD = `
<!ELEMENT doc (para+, note*)>
<!ELEMENT para (#PCDATA | em)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT note EMPTY>
<!ATTLIST para id CDATA #REQUIRED>
<!ATTLIST note ref CDATA #REQUIRED>
`

const ingestSigma = "para.id -> para\nnote.ref => para.id"

// ingestDoc splits text by a comment, a CDATA section and references,
// binds its attributes through a prefix, and mixes text with elements.
const ingestDoc = `<?xml version="1.0"?>
<!DOCTYPE doc>
<doc xmlns:x="urn:x">
  <para id="p1">one <!-- split --> two<![CDATA[ <three> ]]>four &amp; five&#33;</para>
  <para x:id="p2">mixed <em>emphasis</em> tail<!-- c --><em>again</em>end</para>
  <note x:ref="p1"/>
</doc>`

// checkCheckpoints fails unless every element of the session's tree, and
// nothing else, has a checkpoint equal to a fresh run of its content
// model over its children.
func checkCheckpoints(t *testing.T, s *Session) {
	t.Helper()
	elements := 0
	s.tree.Walk(func(n *xmltree.Node) bool {
		if n.IsText() {
			return false
		}
		elements++
		got, ok := s.state[n]
		if !ok {
			t.Fatalf("no checkpoint for %s", s.tree.Path(n))
		}
		r := s.v.Automaton(n.Label).Start()
		for _, c := range n.Children {
			r.Step(c.Label)
		}
		want := r.Save()
		// Before the first symbol a run's position set is unused.
		if got.Len() != want.Len() || got.Len() > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("checkpoint of %s is %+v, a fresh run gives %+v", s.tree.Path(n), got, want)
		}
		return true
	})
	if len(s.state) != elements {
		t.Fatalf("%d checkpoints for %d elements", len(s.state), elements)
	}
}

// TestOpenRetainsParsedTree pins one-pass ingest against Parse on text
// split by a comment, CDATA and references, on prefixed attributes and on
// mixed content.
func TestOpenRetainsParsedTree(t *testing.T) {
	s := openLib(t, ingestDTD, ingestSigma, ingestDoc)
	parsed, err := xmltree.ParseString(ingestDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.tree, parsed) {
		t.Fatalf("session tree:\n%s\nparsed tree:\n%s", xmltree.Serialize(s.tree), xmltree.Serialize(parsed))
	}
	checkCheckpoints(t, s)
	p1 := s.tree.Root.Children[0]
	if len(p1.Children) != 1 || p1.Children[0].Value != "one  two <three> four & five!" {
		t.Fatalf("para[0] text not coalesced: %+v", p1.Children)
	}
	p2 := s.tree.Root.Children[1]
	if !reflect.DeepEqual(p2.Attrs, map[string]string{"id": "p2"}) {
		t.Fatalf("para[1] attributes %v, want id=p2", p2.Attrs)
	}
	var labels []string
	for _, c := range p2.Children {
		labels = append(labels, c.Label)
	}
	if want := []string{dtd.TextSymbol, "em", dtd.TextSymbol, "em", dtd.TextSymbol}; !reflect.DeepEqual(labels, want) {
		t.Fatalf("para[1] children %v, want %v", labels, want)
	}
	// The prefixed attributes reached the indexes: p2 is a key a ref may
	// name, and a second p2 is a duplicate.
	if res := s.Apply(SetAttr("doc/note[0]", "ref", "p2")); res.Rejected != nil {
		t.Fatalf("ref to p2 rejected: %+v", res.Rejected)
	}
	if res := s.Apply(InsertSubtree("doc", 2, `<para id="p2">dup</para>`)); res.Rejected == nil {
		t.Fatal("duplicate p2 accepted")
	}
	revalidate(t, s, ingestDTD, ingestSigma)
}

// TestRejectedInsertLeavesNoCheckpoints rejects inserts at each stage —
// a descendant's content model, the parent's content model, a
// constraint — and requires the session's checkpoints to stay exactly
// those of its tree.
func TestRejectedInsertLeavesNoCheckpoints(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	for _, op := range []EditOp{
		InsertSubtree("lib", 2, `<grp id="n" tag="z"><item>ok</item><item><ref to="a"/></item></grp>`),
		InsertSubtree("lib", 0, `<ref to="a"/>`),
		InsertSubtree("lib", 2, `<grp id="a" tag="z"><item>x</item></grp>`),
	} {
		if res := s.Apply(op); res.Rejected == nil {
			t.Fatalf("%+v accepted", op)
		}
		checkCheckpoints(t, s)
	}
	if res := s.Apply(InsertSubtree("lib", 2, `<grp id="n" tag="z"><item>ok</item></grp>`)); res.Rejected != nil {
		t.Fatalf("valid insert rejected: %+v", res.Rejected)
	}
	checkCheckpoints(t, s)
}

// TestOpenCanceled requires a cancelled context to stop ingest.
func TestOpenCanceled(t *testing.T) {
	d, err := dtd.Parse(libDTD)
	if err != nil {
		t.Fatal(err)
	}
	ck, v := fuzzChecker(d, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Open(ctx, ck, v, strings.NewReader(libDoc)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open under a cancelled context: %v, want context.Canceled", err)
	}
}
