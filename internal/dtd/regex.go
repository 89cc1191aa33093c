// Package dtd implements the DTD formalism of Fan & Libkin (JACM 2002,
// Definition 2.1): extended context-free grammars over element types with
// single-valued string attributes. It provides the regular-expression
// content-model language, a parser for XML DTD syntax, Glushkov automata
// for content-model matching, linear-time grammar analyses (emptiness and
// multi-occurrence), and the simplification of arbitrary DTDs into "simple"
// DTDs whose rules carry at most one operator (Section 4.1 of the paper).
//
// Attribute defaults are parsed but carry no meaning: following the paper,
// every declared attribute is required. <!ATTLIST a id CDATA #IMPLIED>
// declares id ∈ R(a) exactly as #REQUIRED would, so a document with <a/>
// does not conform — an optional attribute cannot be expressed.
package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// TextSymbol is the reserved symbol denoting string content (the paper's S,
// XML's #PCDATA). It is not a legal element type name.
const TextSymbol = "#PCDATA"

// Regex is a content model: the regular expression language
//
//	α ::= S | τ | ε | α|α | α,α | α*
//
// of Definition 2.1, extended with the usual DTD sugar + and ?.
// Implementations are Empty, Text, Name, Seq, Alt, Star, Plus and Opt.
type Regex interface {
	// String renders the expression in DTD content-model syntax.
	String() string
	// precedence is used by String for minimal parenthesisation.
	precedence() int
}

// Empty is the empty word ε. In DTD syntax it renders as EMPTY at top level.
type Empty struct{}

// Text is the string type S (#PCDATA).
type Text struct{}

// Name is a reference to an element type.
type Name struct {
	Type string
}

// Seq is the concatenation α1, α2, …, αn (n ≥ 1).
type Seq struct {
	Items []Regex
}

// Alt is the union α1 | α2 | … | αn (n ≥ 1).
type Alt struct {
	Items []Regex
}

// Star is the Kleene closure α*.
type Star struct {
	Inner Regex
}

// Plus is α+, sugar for (α, α*).
type Plus struct {
	Inner Regex
}

// Opt is α?, sugar for (α | ε).
type Opt struct {
	Inner Regex
}

const (
	precAtom = 3
	precSeq  = 2
	precAlt  = 1
)

func (Empty) precedence() int { return precAtom }
func (Text) precedence() int  { return precAtom }
func (Name) precedence() int  { return precAtom }
func (Seq) precedence() int   { return precSeq }
func (Alt) precedence() int   { return precAlt }
func (Star) precedence() int  { return precAtom }
func (Plus) precedence() int  { return precAtom }
func (Opt) precedence() int   { return precAtom }

func (Empty) String() string { return "EMPTY" }
func (Text) String() string  { return TextSymbol }

func (n Name) String() string { return n.Type }

func (s Seq) String() string { return joinRegex(s.Items, ", ", precSeq) }
func (a Alt) String() string { return joinRegex(a.Items, " | ", precAlt) }

func (s Star) String() string { return unaryString(s.Inner, "*") }
func (p Plus) String() string { return unaryString(p.Inner, "+") }
func (o Opt) String() string  { return unaryString(o.Inner, "?") }

func joinRegex(items []Regex, sep string, prec int) string {
	parts := make([]string, len(items))
	for i, it := range items {
		s := it.String()
		if it.precedence() < prec {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func unaryString(inner Regex, op string) string {
	s := inner.String()
	if inner.precedence() < precAtom {
		s = "(" + s + ")"
	} else if _, ok := inner.(Empty); ok {
		s = "(" + s + ")"
	}
	return s + op
}

// Eq reports whether two content models are structurally equal.
func Eq(a, b Regex) bool {
	switch x := a.(type) {
	case Empty:
		_, ok := b.(Empty)
		return ok
	case Text:
		_, ok := b.(Text)
		return ok
	case Name:
		y, ok := b.(Name)
		return ok && x.Type == y.Type
	case Seq:
		y, ok := b.(Seq)
		return ok && eqSlices(x.Items, y.Items)
	case Alt:
		y, ok := b.(Alt)
		return ok && eqSlices(x.Items, y.Items)
	case Star:
		y, ok := b.(Star)
		return ok && Eq(x.Inner, y.Inner)
	case Plus:
		y, ok := b.(Plus)
		return ok && Eq(x.Inner, y.Inner)
	case Opt:
		y, ok := b.(Opt)
		return ok && Eq(x.Inner, y.Inner)
	}
	return false
}

func eqSlices(a, b []Regex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Names returns the sorted set of element type names referenced by the
// content model.
func Names(r Regex) []string {
	set := map[string]bool{}
	collectNames(r, set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func collectNames(r Regex, set map[string]bool) {
	switch x := r.(type) {
	case Name:
		set[x.Type] = true
	case Seq:
		for _, it := range x.Items {
			collectNames(it, set)
		}
	case Alt:
		for _, it := range x.Items {
			collectNames(it, set)
		}
	case Star:
		collectNames(x.Inner, set)
	case Plus:
		collectNames(x.Inner, set)
	case Opt:
		collectNames(x.Inner, set)
	}
}

// Desugar rewrites α+ as (α, α*) and α? as (α | ε), returning an expression
// in the core language of Definition 2.1. Sequences and unions keep their
// n-ary shape; Normalize flattens and binarises them where needed.
func Desugar(r Regex) Regex {
	switch x := r.(type) {
	case Seq:
		items := make([]Regex, len(x.Items))
		for i, it := range x.Items {
			items[i] = Desugar(it)
		}
		return Seq{Items: items}
	case Alt:
		items := make([]Regex, len(x.Items))
		for i, it := range x.Items {
			items[i] = Desugar(it)
		}
		return Alt{Items: items}
	case Star:
		return Star{Inner: Desugar(x.Inner)}
	case Plus:
		inner := Desugar(x.Inner)
		return Seq{Items: []Regex{inner, Star{Inner: inner}}}
	case Opt:
		return Alt{Items: []Regex{Desugar(x.Inner), Empty{}}}
	default:
		return r
	}
}

// Normalize flattens nested sequences and unions, removes ε factors from
// sequences, and collapses single-item sequences and unions. The language
// denoted by the expression is unchanged.
func Normalize(r Regex) Regex {
	switch x := r.(type) {
	case Seq:
		var items []Regex
		for _, it := range x.Items {
			n := Normalize(it)
			if _, isEmpty := n.(Empty); isEmpty {
				continue
			}
			if sub, isSeq := n.(Seq); isSeq {
				items = append(items, sub.Items...)
				continue
			}
			items = append(items, n)
		}
		switch len(items) {
		case 0:
			return Empty{}
		case 1:
			return items[0]
		}
		return Seq{Items: items}
	case Alt:
		var items []Regex
		for _, it := range x.Items {
			n := Normalize(it)
			if sub, isAlt := n.(Alt); isAlt {
				items = append(items, sub.Items...)
				continue
			}
			items = append(items, n)
		}
		if len(items) == 1 {
			return items[0]
		}
		return Alt{Items: items}
	case Star:
		return Star{Inner: Normalize(x.Inner)}
	case Plus:
		return Plus{Inner: Normalize(x.Inner)}
	case Opt:
		return Opt{Inner: Normalize(x.Inner)}
	default:
		return r
	}
}

// Nullable reports whether the content model accepts the empty word.
func Nullable(r Regex) bool {
	switch x := r.(type) {
	case Empty:
		return true
	case Text, Name:
		return false
	case Seq:
		for _, it := range x.Items {
			if !Nullable(it) {
				return false
			}
		}
		return true
	case Alt:
		for _, it := range x.Items {
			if Nullable(it) {
				return true
			}
		}
		return false
	case Star:
		return true
	case Plus:
		return Nullable(x.Inner)
	case Opt:
		return true
	}
	panic(fmt.Sprintf("dtd: unknown regex node %T", r))
}
