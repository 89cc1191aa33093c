package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/xmltree"
)

// This file cross-validates the full decision pipeline (simplification →
// cardinality encoding → connectivity → ILP → witness) against brute-force
// enumeration of all small trees and all small value assignments. It is the
// strongest soundness check in the repository: any disagreement between the
// paper's symbolic machinery and ground truth on a small instance fails
// here.

// lang enumerates all words of the content-model language up to maxLen.
func lang(r dtd.Regex, maxLen int) [][]string {
	switch x := r.(type) {
	case dtd.Empty:
		return [][]string{{}}
	case dtd.Text:
		if maxLen < 1 {
			return nil
		}
		return [][]string{{dtd.TextSymbol}}
	case dtd.Name:
		if maxLen < 1 {
			return nil
		}
		return [][]string{{x.Type}}
	case dtd.Seq:
		out := [][]string{{}}
		for _, it := range x.Items {
			var next [][]string
			for _, prefix := range out {
				for _, suffix := range lang(it, maxLen-len(prefix)) {
					if len(prefix)+len(suffix) <= maxLen {
						w := append(append([]string{}, prefix...), suffix...)
						next = append(next, w)
					}
				}
			}
			out = dedup(next)
		}
		return out
	case dtd.Alt:
		var out [][]string
		for _, it := range x.Items {
			out = append(out, lang(it, maxLen)...)
		}
		return dedup(out)
	case dtd.Star:
		out := [][]string{{}}
		for {
			grew := false
			var next [][]string
			next = append(next, out...)
			for _, prefix := range out {
				for _, one := range lang(x.Inner, maxLen-len(prefix)) {
					if len(one) == 0 {
						continue
					}
					w := append(append([]string{}, prefix...), one...)
					if len(w) <= maxLen {
						next = append(next, w)
					}
				}
			}
			next = dedup(next)
			if len(next) > len(out) {
				grew = true
			}
			out = next
			if !grew {
				return out
			}
		}
	case dtd.Plus:
		return lang(dtd.Seq{Items: []dtd.Regex{x.Inner, dtd.Star{Inner: x.Inner}}}, maxLen)
	case dtd.Opt:
		return dedup(append([][]string{{}}, lang(x.Inner, maxLen)...))
	}
	return nil
}

func dedup(words [][]string) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for _, w := range words {
		k := strings.Join(w, "\x00")
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	return out
}

// enumTrees enumerates every tree conforming to the DTD with at most
// maxNodes element+text nodes (attribute values unassigned).
func enumTrees(d *dtd.DTD, maxNodes int) []*xmltree.Tree {
	var build func(typ string, budget int) []*xmltree.Node
	build = func(typ string, budget int) []*xmltree.Node {
		if budget < 1 {
			return nil
		}
		var out []*xmltree.Node
		for _, w := range lang(d.Element(typ).Content, budget-1) {
			for _, children := range combine(d, w, budget-1, build) {
				n := xmltree.NewElement(typ)
				n.Children = children
				out = append(out, n)
			}
		}
		return out
	}
	var trees []*xmltree.Tree
	for _, root := range build(d.Root, maxNodes) {
		trees = append(trees, xmltree.NewTree(root))
	}
	return trees
}

// combine enumerates child-list realisations of a label word within a node
// budget.
func combine(d *dtd.DTD, w []string, budget int, build func(string, int) []*xmltree.Node) [][]*xmltree.Node {
	if len(w) == 0 {
		return [][]*xmltree.Node{{}}
	}
	var out [][]*xmltree.Node
	head, rest := w[0], w[1:]
	if head == dtd.TextSymbol {
		for _, tail := range combine(d, rest, budget-1, build) {
			out = append(out, append([]*xmltree.Node{xmltree.NewText("t")}, tail...))
		}
		return out
	}
	for size := 1; size <= budget-len(rest); size++ {
		for _, sub := range build(head, size) {
			if count(sub) != size {
				continue // only count exact sizes once
			}
			for _, tail := range combine(d, rest, budget-size, build) {
				out = append(out, append([]*xmltree.Node{sub}, tail...))
			}
		}
	}
	return out
}

func count(n *xmltree.Node) int {
	c := 1
	for _, ch := range n.Children {
		c += count(ch)
	}
	return c
}

// attrSlots lists every (node, attribute) pair the DTD requires.
func attrSlots(d *dtd.DTD, tr *xmltree.Tree) []func(v string) {
	var out []func(string)
	tr.Walk(func(n *xmltree.Node) bool {
		if n.IsText() {
			return true
		}
		for _, a := range d.Element(n.Label).Attrs {
			node, attr := n, a
			out = append(out, func(v string) { node.SetAttr(attr, v) })
		}
		return true
	})
	return out
}

// bruteConsistent reports whether some tree with ≤ maxNodes nodes and some
// value assignment over a domain as large as the slot count satisfies
// everything. A satisfying assignment over any domain can be relabelled
// into {v0,…,v_{slots-1}}, so the bounded domain is exhaustive for each
// tree shape.
func bruteConsistent(d *dtd.DTD, set []constraint.Constraint, maxNodes int) (bool, *xmltree.Tree) {
	for _, tr := range enumTrees(d, maxNodes) {
		slots := attrSlots(d, tr)
		domain := len(slots)
		if domain == 0 {
			if ok, _ := constraint.SatisfiedAll(tr, set); ok {
				return true, tr
			}
			continue
		}
		assign := make([]int, len(slots))
		for {
			for i, set := range slots {
				set(fmt.Sprintf("v%d", assign[i]))
			}
			if ok, _ := constraint.SatisfiedAll(tr, set); ok {
				return true, tr
			}
			i := 0
			for ; i < len(assign); i++ {
				assign[i]++
				if assign[i] < domain {
					break
				}
				assign[i] = 0
			}
			if i == len(assign) {
				break
			}
		}
	}
	return false, nil
}

// randSpec builds a small random DTD (possibly recursive) plus a random
// unary constraint set over it.
func randSpec(rng *rand.Rand) (*dtd.DTD, []constraint.Constraint) {
	nTypes := 1 + rng.Intn(3)
	names := make([]string, nTypes)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	d := dtd.New("r")
	rootItems := make([]dtd.Regex, nTypes)
	for i, nm := range names {
		switch rng.Intn(3) {
		case 0:
			rootItems[i] = dtd.Opt{Inner: dtd.Name{Type: nm}}
		case 1:
			rootItems[i] = dtd.Star{Inner: dtd.Name{Type: nm}}
		default:
			rootItems[i] = dtd.Name{Type: nm}
		}
	}
	d.AddElement("r", dtd.Seq{Items: rootItems})
	d.AddAttr("r", "v")
	for i, nm := range names {
		var opts []dtd.Regex
		opts = append(opts, dtd.Empty{}, dtd.Text{})
		for j := i + 1; j < nTypes; j++ {
			opts = append(opts, dtd.Name{Type: names[j]})
			opts = append(opts, dtd.Opt{Inner: dtd.Name{Type: names[j]}})
		}
		// Self-recursion, kept generating with Opt.
		opts = append(opts, dtd.Opt{Inner: dtd.Name{Type: nm}})
		content := opts[rng.Intn(len(opts))]
		if rng.Intn(4) == 0 {
			content = dtd.Seq{Items: []dtd.Regex{content, opts[rng.Intn(len(opts))]}}
		}
		d.AddElement(nm, content)
		d.AddAttr(nm, "v")
	}

	refs := append([]string{"r"}, names...)
	pick := func() string { return refs[rng.Intn(len(refs))] }
	var set []constraint.Constraint
	for k := 0; k < 1+rng.Intn(3); k++ {
		a, b := pick(), pick()
		switch rng.Intn(5) {
		case 0:
			set = append(set, constraint.UnaryKey(a, "v"))
		case 1:
			set = append(set, constraint.UnaryInclusion(a, "v", b, "v"))
		case 2:
			set = append(set, constraint.UnaryForeignKey(a, "v", b, "v"))
		case 3:
			set = append(set, constraint.NotKey{Type: a, Attr: "v"})
		default:
			set = append(set, constraint.NotInclusion{Child: a, ChildAttr: "v", Parent: b, ParentAttr: "v"})
		}
	}
	return d, set
}

func TestDecisionAgainstBruteForce(t *testing.T) {
	const maxNodes = 5
	rng := rand.New(rand.NewSource(2024))
	trials, skipped := 0, 0
	for trial := 0; trial < 120; trial++ {
		d, set := randSpec(rng)
		if err := d.Check(); err != nil {
			t.Fatalf("random DTD invalid: %v\n%s", err, d)
		}
		res, err := consistent(d, set, &Options{Solver: ilp.Options{MaxNodes: 1500}})
		if errors.Is(err, ilp.ErrNodeLimit) {
			skipped++
			continue
		}
		if err != nil {
			t.Fatalf("Consistent failed on\n%s%s: %v", d, constraint.FormatSet(set), err)
		}
		// Presolve soundness: the raw search on the unreduced system must
		// reach the same verdict as the presolved pipeline on every
		// instance before either is compared to ground truth.
		raw, err := consistent(d, set, &Options{
			Solver:      ilp.Options{MaxNodes: 1500, DisablePresolve: true},
			SkipWitness: true,
		})
		if errors.Is(err, ilp.ErrNodeLimit) {
			skipped++
			continue
		}
		if err != nil {
			t.Fatalf("raw Consistent failed on\n%s%s: %v", d, constraint.FormatSet(set), err)
		}
		if raw.Consistent != res.Consistent {
			t.Fatalf("presolve changes the verdict: presolved=%v raw=%v on\nDTD:\n%s\nΣ:\n%s",
				res.Consistent, raw.Consistent, d, constraint.FormatSet(set))
		}
		trials++
		found, example := bruteConsistent(d, set, maxNodes)
		if found && !res.Consistent {
			t.Fatalf("checker says INCONSISTENT but brute force found a witness.\nDTD:\n%s\nΣ:\n%s\ntree:\n%s",
				d, constraint.FormatSet(set), example)
		}
		if res.Consistent {
			// The checker's witness was already independently verified by
			// witness.Build; additionally, if it is small the brute-force
			// enumerator must agree.
			n := 0
			res.Witness.Walk(func(*xmltree.Node) bool { n++; return true })
			if n <= maxNodes && !found {
				t.Fatalf("checker witness has %d nodes but brute force found nothing.\nDTD:\n%s\nΣ:\n%s\nwitness:\n%s",
					n, d, constraint.FormatSet(set), res.Witness)
			}
		}
	}
	if trials < 100 {
		t.Errorf("too few completed trials: %d (skipped %d)", trials, skipped)
	}
}
