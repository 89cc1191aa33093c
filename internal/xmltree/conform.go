package xmltree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xic/internal/dtd"
)

// Validator checks trees for conformance with a fixed DTD (T ⊨ D,
// Definition 2.2). Until CompileAll runs it compiles one content-model
// automaton per element type on first use, guarded by a mutex; CompileAll
// freezes the complete cache into an immutable map read without any lock,
// so concurrent Validate (and streaming ValidateStream) calls never
// serialize on the hot path. It must not be shared across mutations of the
// DTD.
type Validator struct {
	dtd *dtd.DTD

	// frozen, once non-nil, holds the automaton of every declared element
	// type and is never mutated again; readers load it atomically and skip
	// the mutex entirely.
	frozen atomic.Pointer[map[string]*dtd.Automaton]

	mu       sync.Mutex
	automata map[string]*dtd.Automaton
}

// NewValidator returns a validator for the DTD.
func NewValidator(d *dtd.DTD) *Validator {
	return &Validator{dtd: d, automata: make(map[string]*dtd.Automaton)}
}

// CompileAll eagerly compiles the content-model automata of every declared
// element type and freezes them into an immutable map, so later Validate
// calls are lock-free reads. Compiled engines call this once at build time
// to keep automaton construction off the concurrent serving path.
func (v *Validator) CompileAll() {
	if v.frozen.Load() != nil {
		return
	}
	m := make(map[string]*dtd.Automaton, len(v.dtd.Types()))
	for _, t := range v.dtd.Types() {
		m[t] = v.automaton(t, v.dtd.Element(t).Content)
	}
	v.frozen.Store(&m)
}

// Automaton returns the compiled content-model automaton of the element
// type, or nil when the type is not declared. It is the accessor the
// streaming document checker feeds child labels through incrementally.
func (v *Validator) Automaton(label string) *dtd.Automaton {
	e := v.dtd.Element(label)
	if e == nil {
		return nil
	}
	return v.automaton(label, e.Content)
}

// automaton returns the compiled content-model automaton of an element
// type, compiling and caching it on first use. After CompileAll it is a
// lock-free map read.
func (v *Validator) automaton(label string, content dtd.Regex) *dtd.Automaton {
	if m := v.frozen.Load(); m != nil {
		if a, ok := (*m)[label]; ok {
			return a
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	a, ok := v.automata[label]
	if !ok {
		a = dtd.Compile(content)
		v.automata[label] = a
	}
	return a
}

// DTD returns the DTD the validator checks against.
func (v *Validator) DTD() *dtd.DTD { return v.dtd }

// Validate reports whether the tree conforms to the DTD, returning a
// descriptive error naming the offending node otherwise.
func (v *Validator) Validate(t *Tree) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("xmltree: empty tree")
	}
	if t.Root.Label != v.dtd.Root {
		return fmt.Errorf("xmltree: root is %q, DTD requires %q", t.Root.Label, v.dtd.Root)
	}
	return v.validateNode(t, t.Root)
}

func (v *Validator) validateNode(t *Tree, n *Node) error {
	if n.IsText() {
		if len(n.Children) > 0 || len(n.Attrs) > 0 {
			return fmt.Errorf("xmltree: text node with children or attributes at %s", t.Path(n))
		}
		return nil
	}
	decl := v.dtd.Element(n.Label)
	if decl == nil {
		return fmt.Errorf("xmltree: element type %q at %s is not declared", n.Label, t.Path(n))
	}
	// Attributes: exactly R(τ), each single-valued (the map guarantees
	// single values; presence of every declared attribute is required).
	for _, l := range decl.Attrs {
		if _, ok := n.Attr(l); !ok {
			return fmt.Errorf("xmltree: element %s lacks required attribute %q", t.Path(n), l)
		}
	}
	if len(n.Attrs) > len(decl.Attrs) {
		for _, l := range n.AttrNames() {
			if !decl.HasAttr(l) {
				return fmt.Errorf("xmltree: element %s has undeclared attribute %q", t.Path(n), l)
			}
		}
	}
	// Children sequence must be in L(P(τ)).
	labels := make([]string, len(n.Children))
	for i, c := range n.Children {
		labels[i] = c.Label
	}
	a := v.automaton(n.Label, decl.Content)
	if !a.Match(labels) {
		return fmt.Errorf("xmltree: children of %s do not match content model %s: %v",
			t.Path(n), decl.Content, labels)
	}
	for _, c := range n.Children {
		if err := v.validateNode(t, c); err != nil {
			return err
		}
	}
	return nil
}

// Conforms reports whether the tree conforms to the DTD. It is a one-shot
// convenience around Validator.
func Conforms(t *Tree, d *dtd.DTD) bool {
	return NewValidator(d).Validate(t) == nil
}
