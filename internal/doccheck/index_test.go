package doccheck

import (
	"context"
	"strings"
	"testing"

	"xic/internal/constraint"
)

func TestKeyIndexAddRemove(t *testing.T) {
	k := NewKeyIndex("item", []string{"id"})
	if _, dup := k.Add("a", SrcPos{Line: 1}); dup {
		t.Fatal("first add reported dup")
	}
	first, dup := k.Add("a", SrcPos{Line: 9})
	if !dup || first.Line != 1 {
		t.Fatalf("second add: dup=%v first=%+v, want dup at line 1", dup, first)
	}
	if k.Dups() != 1 || k.Count("a") != 2 || k.Len() != 1 {
		t.Fatalf("after two adds: dups=%d count=%d len=%d", k.Dups(), k.Count("a"), k.Len())
	}
	k.Remove("a")
	if k.Dups() != 0 || k.Count("a") != 1 {
		t.Fatalf("after remove: dups=%d count=%d", k.Dups(), k.Count("a"))
	}
	k.Remove("a")
	if k.Has("a") || k.Len() != 0 {
		t.Fatal("index not empty after removing both occurrences")
	}
	k.Remove("never-added") // no-op, must not underflow
	if k.Dups() != 0 {
		t.Fatal("phantom remove disturbed the dup counter")
	}
}

func TestInclusionIndexCounters(t *testing.T) {
	in := NewInclusionIndex(constraint.Inclusion{
		Child: "ref", ChildAttrs: []string{"to"},
		Parent: "grp", ParentAttrs: []string{"id"},
	})
	in.AddChild("g1", SrcPos{})
	if in.Unmatched() != 1 {
		t.Fatalf("unmatched=%d, want 1", in.Unmatched())
	}
	in.AddParent("g1")
	if in.Unmatched() != 0 {
		t.Fatalf("after parent add: unmatched=%d, want 0", in.Unmatched())
	}
	in.AddParent("g1")
	in.RemoveParent("g1")
	if in.Unmatched() != 0 || !in.HasParent("g1") {
		t.Fatal("removing one of two parent occurrences must keep the tuple matched")
	}
	in.RemoveParent("g1")
	if in.Unmatched() != 1 || in.HasParent("g1") {
		t.Fatalf("after last parent removed: unmatched=%d hasParent=%v", in.Unmatched(), in.HasParent("g1"))
	}
	in.AddChild("g1", SrcPos{})
	in.RemoveChild("g1")
	if in.Unmatched() != 1 {
		t.Fatalf("removing one of two child occurrences: unmatched=%d, want 1", in.Unmatched())
	}
	in.RemoveChild("g1")
	if in.Unmatched() != 0 || in.ChildCount("g1") != 0 {
		t.Fatalf("after last child removed: unmatched=%d", in.Unmatched())
	}
	in.AddLacking()
	in.AddLacking()
	in.RemoveLacking()
	if in.Lacking() != 1 {
		t.Fatalf("lacking=%d, want 1", in.Lacking())
	}
}

// TestRunRetainIndexesMatchDocument checks that RunRetain hands back
// indexes reflecting the document's tuples, including the negated-key
// index that streaming mode would have dropped once satisfied.
func TestRunRetainIndexesMatchDocument(t *testing.T) {
	ck := newChecker(t, `
		<!ELEMENT lib (grp*, ref*)>
		<!ELEMENT grp EMPTY>
		<!ATTLIST grp id CDATA #REQUIRED>
		<!ATTLIST grp tag CDATA #REQUIRED>
		<!ELEMENT ref EMPTY>
		<!ATTLIST ref to CDATA #REQUIRED>
		`,
		"grp.id -> grp\nref.to <= grp.id\nnot grp.tag -> grp")
	doc := `<lib><grp id="a" tag="t"/><grp id="b" tag="t"/><ref to="a"/></lib>`
	rep, kept, err := ck.RunRetain(context.Background(), strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("document should be valid, got %v", rep.Violations)
	}
	idxs := kept.Indexes
	if len(idxs.Entries) != 3 {
		t.Fatalf("got %d index entries, want 3", len(idxs.Entries))
	}
	key := idxs.Entries[0].Key
	if key.Count("a") != 1 || key.Count("b") != 1 || key.Dups() != 0 {
		t.Fatalf("key index wrong: a=%d b=%d dups=%d", key.Count("a"), key.Count("b"), key.Dups())
	}
	incl := idxs.Entries[1].Incl
	if incl.ChildCount("a") != 1 || !incl.HasParent("a") || incl.Unmatched() != 0 {
		t.Fatalf("inclusion index wrong: child(a)=%d parent(a)=%v unmatched=%d",
			incl.ChildCount("a"), incl.HasParent("a"), incl.Unmatched())
	}
	// The not-key index must be complete (retain mode): both tag
	// occurrences present even though the duplicate decided the verdict.
	nk := idxs.Entries[2].Key
	if nk.Count("t") != 2 || nk.Dups() != 1 {
		t.Fatalf("not-key index dropped in retain mode: count=%d dups=%d", nk.Count("t"), nk.Dups())
	}
}
