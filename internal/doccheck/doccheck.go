// Package doccheck validates XML documents against a fixed DTD and
// constraint set in a single streaming pass. It is the serving-path
// counterpart of xmltree.Validator + constraint.SatisfiedAll for the
// paper's fixed-DTD setting (Corollaries 4.11 and 5.5): the schema is
// compiled once and many documents are checked against it, so the checker
// must not materialize each document as a tree. The one exception is
// RunRetain, whose caller keeps the document: the same pass then also
// builds the tree and each element's content-model checkpoint.
//
// Memory is bounded by the open-element stack and the constraint hash
// indexes, never by the document: DTD conformance feeds each element's
// child-label sequence into the cached Glushkov automaton incrementally
// (one dtd.Run per open element), keys deduplicate through per-constraint
// value sets, and inclusion constraints collect child and parent value
// sets that are resolved at end-of-document — which is also what lets a
// foreign key reference an element that appears later in the document.
//
// The same checker validates an in-memory xmltree.Tree (RunTree): a walk
// over the tree feeds the element, text and end steps the token loop
// feeds, so trees and streams get one verdict and one Report.
//
// Tokens come from xmltree.Scanner as byte views. Building a Checker
// interns the DTD's element and attribute names to dense symbols, so the
// per-element path — start, end and text, marked //xic:hotpath — works on
// slices indexed by symbol and allocates nothing; the only per-element
// allocation is the copy of an attribute value a constraint index may keep,
// made once per element and shared by every index that reads it.
// Violations cost O(kept), not O(seen): past the report's cap a violation
// is only counted, before its path or message is built, and kept paths
// are rendered incrementally from the open-element stack.
package doccheck

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// DefaultMaxViolations bounds the violations a Report accumulates when the
// checker is not configured otherwise, so a pathological document cannot
// grow the report without bound.
const DefaultMaxViolations = 64

// Violation is one way the document fails the specification.
type Violation struct {
	// Path locates the offending element in the tree-path notation of
	// xmltree.Tree.Path (teachers/teacher[1]/teach[0]). For verdicts that
	// only exist at end-of-document (a negated key never witnessed, an
	// unmatched inclusion value) it is the element type the constraint
	// ranges over.
	Path string
	// Line is the 1-based source line of the reporting position; 0 for
	// end-of-document verdicts with no single position, and for every
	// violation RunTree reports (a tree has no source positions).
	Line int
	// Offset is the 0-based input offset just past the token that
	// reported the violation; -1 for end-of-document verdicts, 0 for the
	// other violations RunTree reports.
	Offset int64
	// Constraint is the violated constraint; nil for DTD-conformance
	// violations.
	Constraint constraint.Constraint
	// Msg describes the violation.
	Msg string
}

func (v Violation) String() string {
	if v.Line > 0 {
		return fmt.Sprintf("line %d: %s: %s", v.Line, v.Path, v.Msg)
	}
	return fmt.Sprintf("%s: %s", v.Path, v.Msg)
}

// Report is the outcome of one validation pass, over a token stream (Run)
// or over a tree (RunTree).
type Report struct {
	// Violations lists conformance and constraint violations in document
	// order, with end-of-document verdicts last (ordered by the source
	// position that caused them).
	Violations []Violation
	// Truncated reports that the violation limit was reached and further
	// violations were dropped; the verdict is still exact.
	Truncated bool
	// Dropped counts the violations dropped past the limit.
	Dropped int
	// Elements counts the element nodes seen.
	Elements int
}

// OK reports whether the document conforms to the DTD and satisfies every
// constraint.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a valid document and an error naming the first
// violation otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("doccheck: %d violation(s); first: %s", len(r.Violations), r.Violations[0])
}

// Checker is a compiled streaming validator for one specification. It
// holds no per-document state, so one Checker serves any number of
// concurrent Run calls; the automata come from the shared (frozen)
// xmltree.Validator cache.
type Checker struct {
	d     *dtd.DTD
	v     *xmltree.Validator
	sigma []constraint.Constraint

	// MaxViolations bounds the report size; 0 means DefaultMaxViolations.
	MaxViolations int

	syms     symtab     // element types, and each type's attributes
	types    []elemType // by element symbol
	rootSym  int32
	maxAttrs int
}

// elemType is the compiled form of one declared element type.
type elemType struct {
	label string
	decl  *dtd.Element
	auto  *dtd.Automaton
	kept  []int32 // attribute slots some constraint index reads
}

// New returns a streaming checker over the DTD, its validator (whose
// automaton cache should be compiled via CompileAll) and a constraint set
// already validated against the DTD.
func New(d *dtd.DTD, v *xmltree.Validator, sigma []constraint.Constraint) *Checker {
	c := &Checker{d: d, v: v, sigma: sigma, rootSym: -1}
	names := d.Types()
	n := len(names)
	for _, t := range names {
		n += len(d.Element(t).Attrs)
	}
	c.syms = newSymtab(n)
	c.types = make([]elemType, len(names))
	for i, t := range names {
		e := d.Element(t)
		c.types[i] = elemType{label: t, decl: e, auto: v.Automaton(t)}
		c.syms.add(-1, t, int32(i))
		for j, a := range e.Attrs {
			c.syms.add(int32(i), a, int32(j))
		}
		c.maxAttrs = max(c.maxAttrs, len(e.Attrs))
		if t == d.Root {
			c.rootSym = int32(i)
		}
	}
	for _, con := range sigma {
		switch x := con.(type) {
		case constraint.Key:
			c.keep(x.Type, x.Attrs)
		case constraint.ForeignKey:
			c.keep(x.Child, x.ChildAttrs)
			c.keep(x.Parent, x.ParentAttrs)
		case constraint.Inclusion:
			c.keep(x.Child, x.ChildAttrs)
			c.keep(x.Parent, x.ParentAttrs)
		case constraint.NotKey:
			c.keep(x.Type, []string{x.Attr})
		case constraint.NotInclusion:
			c.keep(x.Child, []string{x.ChildAttr})
			c.keep(x.Parent, []string{x.ParentAttr})
		}
	}
	return c
}

// symbol returns the symbol of a declared element type, or -1.
func (c *Checker) symbol(label string) int32 { return c.syms.lookup(-1, []byte(label)) }

// slots returns the attribute slots of attrs on element type label.
func (c *Checker) slots(label string, attrs []string) []int32 {
	sym := c.symbol(label)
	out := make([]int32, len(attrs))
	for i, a := range attrs {
		out[i] = c.syms.lookup(sym, []byte(a))
	}
	return out
}

// keep marks attributes of an element type as read by a constraint index,
// so the pass copies their values once per element.
func (c *Checker) keep(label string, attrs []string) {
	sym := c.symbol(label)
	if sym < 0 {
		return
	}
	t := &c.types[sym]
	for _, slot := range c.slots(label, attrs) {
		if slot >= 0 && !containsSlot(t.kept, slot) {
			t.kept = append(t.kept, slot)
		}
	}
}

func containsSlot(slots []int32, slot int32) bool {
	for _, s := range slots {
		if s == slot {
			return true
		}
	}
	return false
}

// Run validates one document from r in a single pass. It returns a Report
// for well-formed documents — valid or not — and an error for documents
// that cannot be checked at all: XML syntax errors and model violations
// (multiple roots, attribute local-name collisions) surface as
// *xmltree.ParseError with line and offset, context cancellation as an
// error wrapping ctx.Err().
func (c *Checker) Run(ctx context.Context, r io.Reader) (*Report, error) {
	rep, _, err := c.runPass(ctx, r, false)
	return rep, err
}

// Retained is what RunRetain keeps of a valid document: its tree, as
// xmltree.Parse builds it; the filled constraint indexes (index.go),
// complete enough to support later removal, since the drop-the-index-early
// optimization of streaming mode is off; and each element's checkpoint,
// the state of its content model's automaton after its last child.
type Retained struct {
	Tree        *xmltree.Tree
	Indexes     *Indexes
	Checkpoints map[*xmltree.Node]*dtd.State
}

// RunRetain validates like Run and, for a valid document, also returns
// what a document session (internal/docsession) keeps across edits. One
// scanner pass does both: each start tag feeds an xmltree.Builder, and
// each end tag saves the element's automaton run, which has just consumed
// its last child, before the run goes back to the pool. Building stops at
// the first violation, since an invalid document is not kept; the
// Retained is then nil.
func (c *Checker) RunRetain(ctx context.Context, r io.Reader) (*Report, *Retained, error) {
	return c.runPass(ctx, r, true)
}

func (c *Checker) runPass(ctx context.Context, r io.Reader, retain bool) (*Report, *Retained, error) {
	rn, idxs := c.newRun(ctx, retain)
	rn.sc = xmltree.NewScanner(r)
	if retain {
		rn.tb = &xmltree.Builder{}
	}
	if err := rn.loop(ctx); err != nil {
		return nil, nil, err
	}
	if !rn.building() {
		return rn.report, nil, nil
	}
	states := make(map[*xmltree.Node]*dtd.State, len(rn.closed))
	for i := range rn.closed {
		states[rn.closed[i].n] = &rn.closed[i].st
	}
	return rn.report, &Retained{Tree: rn.tb.Tree(), Indexes: idxs, Checkpoints: states}, nil
}

// RunTree validates an in-memory tree with the checks Run applies to a
// token stream, returning the same Report. Each text node of the tree is
// one text step of its parent's content model: adjacent text nodes are
// not coalesced, as a parser would coalesce adjacent character data, and
// a text node carrying attributes or children is a violation. A tree has
// no source positions, so its violations carry paths but Line 0 and
// Offset 0 (end-of-document verdicts keep Offset -1). A nil tree or root
// fails like an empty document, with an *xmltree.ParseError; context
// cancellation is an error wrapping ctx.Err().
func (c *Checker) RunTree(ctx context.Context, t *xmltree.Tree) (*Report, error) {
	if t == nil || t.Root == nil {
		return nil, &xmltree.ParseError{Msg: "no root element"}
	}
	rn, _ := c.newRun(ctx, false)
	type open struct {
		n    *xmltree.Node
		next int
	}
	stack := []open{{n: t.Root}}
	rn.startNode(t.Root)
	for steps := 0; len(stack) > 0; steps++ {
		if err := rn.canceled(ctx, steps); err != nil {
			return nil, err
		}
		top := &stack[len(stack)-1]
		if top.next == len(top.n.Children) {
			stack = stack[:len(stack)-1]
			if rn.end() {
				rn.reportIncomplete()
			}
			continue
		}
		n := top.n.Children[top.next]
		top.next++
		if n.IsText() {
			rn.textNode(n)
			continue
		}
		rn.startNode(n)
		stack = append(stack, open{n: n})
	}
	for _, f := range rn.finishers {
		f.finish(rn)
	}
	return rn.report, nil
}

// newRun returns the per-document state of one pass, with fresh
// constraint collectors; retain keeps their indexes complete.
func (c *Checker) newRun(ctx context.Context, retain bool) (*run, *Indexes) {
	nsym := len(c.types)
	rn := &run{
		c:      c,
		report: &Report{},
		max:    c.MaxViolations,
		vals:   make([][]byte, c.maxAttrs),
		have:   make([]uint32, c.maxAttrs),
		kept:   make([]string, c.maxAttrs),
		pool:   make([][]*dtd.Run, nsym),
		free:   make([]int, nsym),
		done:   ctx.Done(),
	}
	if rn.max <= 0 {
		rn.max = DefaultMaxViolations
	}
	var idxs *Indexes
	rn.collectors, rn.finishers, idxs = c.newConstraintState(retain)
	return rn, idxs
}

// frame is the retained state of one open element.
type frame struct {
	sym         int32  // element symbol; -1 when the type is undeclared
	label       string // the element type, DTD-owned when declared
	run         *dtd.Run
	contentBad  bool // content model already failed; stop stepping
	lastWasText bool // coalesce adjacent character-data runs
	index       int  // index among same-label siblings
	pathEnd     int  // end of this frame's rendered path in run.path
	undeclared  map[string]int
}

// run is the per-document state of one pass.
type run struct {
	c      *Checker
	sc     *xmltree.Scanner // nil when walking a tree, which has no positions
	report *Report
	max    int

	frames []frame // frames[:depth] are live; the rest are reusable
	depth  int
	counts []int32 // frames[d] counts its children by symbol in counts[d*nsym:]

	gen  uint32   // the current element's mark in have
	vals [][]byte // the current element's attribute values, by slot
	have []uint32 // gen when the slot's attribute is present
	kept []string // copies of the kept slots' values

	line int   // position of the most recent token
	off  int64 // in a tree, the ordinal of the current element instead

	collectors [][]collector // by element symbol
	finishers  []finisher
	pool       [][]*dtd.Run // idle automaton runs by symbol: pool[s][:free[s]]
	free       []int

	path      []byte // rendered paths of frames[:pathValid]
	pathValid int

	// RunRetain only, until the first violation: the tree under
	// construction and the checkpoints of the elements closed so far.
	tb     *xmltree.Builder
	closed []checkpoint

	done <-chan struct{}
}

// canceled polls ctx every 1024 steps.
func (rn *run) canceled(ctx context.Context, steps int) error {
	if steps%1024 == 0 && rn.done != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("doccheck: validation aborted after %d elements: %w", rn.report.Elements, err)
		}
	}
	return nil
}

// loop drives the token stream to EOF.
func (rn *run) loop(ctx context.Context) error {
	sc := rn.sc
	for tokens := 0; ; tokens++ {
		if err := rn.canceled(ctx, tokens); err != nil {
			return err
		}
		kind, err := sc.Next()
		if err != nil {
			return err
		}
		rn.off = sc.Offset()
		rn.line = sc.Line()
		switch kind {
		case xmltree.KindEOF:
			for _, f := range rn.finishers {
				f.finish(rn)
			}
			return nil
		case xmltree.KindStart:
			rn.startElement(sc.Name(), sc.Attrs())
		case xmltree.KindEnd:
			if rn.building() { // while building, every open element has a run
				rn.closed = append(rn.closed, checkpoint{n: rn.tb.End()})
				rn.frames[rn.depth-1].run.SaveInto(&rn.closed[len(rn.closed)-1].st)
			}
			if rn.end() {
				rn.reportIncomplete()
			}
		case xmltree.KindText:
			if rn.building() {
				rn.tb.Text(sc.Text())
			}
			if rn.text() {
				rn.reportText()
			}
		}
	}
}

// Problems start reports for the cold path to describe.
const (
	badRoot    uint8 = 1 << iota // the root is not the DTD's root type
	badContent                   // the parent's content model rejects this child
	undeclared                   // the element type is not declared
	badAttrs                     // attributes missing or undeclared
)

// startElement handles a start tag: the cold work around the hot start —
// growing the stack, copying kept attribute values, reporting problems,
// building the retained node. A retained node's attribute map holds the
// one copy of each value, which the kept slots share.
func (rn *run) startElement(name []byte, attrs []xmltree.Attr) {
	sym := rn.c.syms.lookup(-1, name)
	rn.reserve(sym)
	if problems := rn.start(sym, attrs); problems != 0 {
		var extra []string
		if sym < 0 {
			rn.frames[rn.depth-1].label = string(name)
		} else if problems&badAttrs != 0 {
			for _, a := range attrs {
				if rn.c.syms.lookup(sym, a.Name) < 0 {
					extra = append(extra, string(a.Name))
				}
			}
		}
		rn.reportStart(problems, extra)
	}
	var n *xmltree.Node
	if rn.building() {
		n = rn.tb.Start(name, attrs)
	}
	if sym < 0 || len(rn.collectors[sym]) == 0 {
		return
	}
	t := &rn.c.types[sym]
	for _, slot := range t.kept {
		switch {
		case rn.have[slot] != rn.gen:
		case n != nil:
			rn.kept[slot] = n.Attrs[t.decl.Attrs[slot]]
		default:
			rn.kept[slot] = string(rn.vals[slot])
		}
	}
	rn.collect(sym)
}

// building reports whether the pass still builds the retained document.
// It stops at the first violation: an invalid document is not kept, so
// the rest of its tree would be thrown away.
func (rn *run) building() bool {
	if rn.tb != nil && len(rn.report.Violations) > 0 {
		rn.tb, rn.closed = nil, nil
	}
	return rn.tb != nil
}

// checkpoint is a closed element's node and content-model state.
type checkpoint struct {
	n  *xmltree.Node
	st dtd.State
}

// startNode is startElement for an element node of a tree, whose
// attribute values are already strings.
func (rn *run) startNode(n *xmltree.Node) {
	rn.off = int64(rn.report.Elements)
	sym := rn.c.symbol(n.Label)
	rn.reserve(sym)
	problems := rn.open(sym)
	if sym >= 0 && !rn.bindNode(sym, n.Attrs) {
		problems |= badAttrs
	}
	if problems != 0 {
		var extra []string
		if sym < 0 {
			rn.frames[rn.depth-1].label = n.Label
		} else if problems&badAttrs != 0 {
			for a := range n.Attrs {
				if rn.c.syms.lookup(sym, []byte(a)) < 0 {
					extra = append(extra, a)
				}
			}
		}
		rn.reportStart(problems, extra)
	}
	if sym >= 0 && len(rn.collectors[sym]) > 0 {
		rn.collect(sym)
	}
}

// bindNode is bind over a tree node's attribute map. It stores every
// bound value as kept: the strings need no copy.
func (rn *run) bindNode(sym int32, attrs map[string]string) bool {
	rn.nextGen()
	exact := true
	bound := 0
	for a, v := range attrs {
		slot := rn.c.syms.lookup(sym, []byte(a))
		if slot < 0 {
			exact = false
			continue
		}
		rn.kept[slot] = v
		rn.have[slot] = rn.gen
		bound++
	}
	return exact && bound == len(rn.c.types[sym].decl.Attrs)
}

// textNode is one text step for a text node of a tree. Tree text nodes
// are never coalesced, and they carry no attributes or children.
func (rn *run) textNode(n *xmltree.Node) {
	rn.frames[rn.depth-1].lastWasText = false
	if rn.text() {
		rn.reportText()
	}
	if (len(n.Attrs) > 0 || len(n.Children) > 0) && !rn.drop() {
		p := rn.pathOf(rn.depth)
		rn.violate(nil, p, "text node under %s carries attributes or children", p)
	}
}

// reserve grows the frame stack for one more element and makes sure an
// idle automaton run for sym is pooled, so start allocates nothing.
func (rn *run) reserve(sym int32) {
	if rn.depth == len(rn.frames) {
		rn.frames = append(rn.frames, frame{})
		if need := len(rn.frames) * len(rn.c.types); need > len(rn.counts) {
			counts := make([]int32, 2*need)
			copy(counts, rn.counts)
			rn.counts = counts
		}
	}
	if sym >= 0 && rn.free[sym] == 0 {
		rn.pool[sym] = append(rn.pool[sym], nil)
		rn.pool[sym][0] = rn.c.types[sym].auto.Start()
		rn.free[sym] = 1
	}
}

// start opens an element of symbol sym and binds its attributes to slots.
// It returns the problems found, for the cold path to report.
//
//xic:hotpath
func (rn *run) start(sym int32, attrs []xmltree.Attr) uint8 {
	problems := rn.open(sym)
	if sym >= 0 && !rn.bind(sym, attrs) {
		problems |= badAttrs
	}
	return problems
}

// open counts an element of symbol sym among its parent's children, steps
// the parent's content automaton and pushes the element's frame. It
// returns the problems found.
//
//xic:hotpath
func (rn *run) open(sym int32) uint8 {
	c := rn.c
	var problems uint8
	index := 0
	if rn.depth == 0 {
		if sym != c.rootSym {
			problems |= badRoot
		}
	} else {
		parent := &rn.frames[rn.depth-1]
		parent.lastWasText = false
		if sym >= 0 {
			nsym := len(c.types)
			counts := rn.counts[(rn.depth-1)*nsym : rn.depth*nsym]
			index = int(counts[sym])
			counts[sym]++
			if parent.run != nil && !parent.contentBad && !parent.run.Step(c.types[sym].label) {
				parent.contentBad = true
				problems |= badContent
			}
		}
	}
	rn.push(sym, index)
	rn.report.Elements++
	if sym < 0 {
		return problems | undeclared
	}
	return problems
}

// push opens a frame, reusing the stack slot — and the pooled automaton
// run reserve set aside — left behind by earlier elements.
//
//xic:hotpath
func (rn *run) push(sym int32, index int) {
	d := rn.depth
	f := &rn.frames[d]
	f.sym, f.index, f.contentBad, f.lastWasText = sym, index, false, false
	f.run, f.label = nil, ""
	if sym >= 0 {
		n := rn.free[sym] - 1
		f.run = rn.pool[sym][n]
		rn.free[sym] = n
		f.run.Reset()
		f.label = rn.c.types[sym].label
	}
	nsym := len(rn.c.types)
	clear(rn.counts[d*nsym : (d+1)*nsym])
	f.undeclared = nil // dropped, not cleared: clearing costs its capacity
	rn.pathValid = min(rn.pathValid, d)
	rn.depth++
}

// bind records the element's attribute values by slot and reports whether
// it carries exactly the declared attribute set R(τ): every declared
// attribute present, no undeclared ones. The scanner has already rejected
// repeated local names.
//
//xic:hotpath
func (rn *run) bind(sym int32, attrs []xmltree.Attr) bool {
	rn.nextGen()
	exact := true
	bound := 0
	for i := range attrs {
		slot := rn.c.syms.lookup(sym, attrs[i].Name)
		if slot < 0 {
			exact = false
			continue
		}
		rn.vals[slot] = attrs[i].Value
		rn.have[slot] = rn.gen
		bound++
	}
	return exact && bound == len(rn.c.types[sym].decl.Attrs)
}

// nextGen starts a new element's attribute generation, so no slot of the
// previous element reads as present.
//
//xic:hotpath
func (rn *run) nextGen() {
	rn.gen++
	if rn.gen == 0 {
		clear(rn.have)
		rn.gen = 1
	}
}

// collect feeds the current element to the constraint collectors of its
// type.
//
//xic:hotpath
func (rn *run) collect(sym int32) {
	for _, col := range rn.collectors[sym] {
		col.element(rn)
	}
}

// end closes the innermost element, returning its automaton run to the
// pool. It reports whether the element's children stopped short of its
// content model; the popped frame stays readable for the report.
//
//xic:hotpath
func (rn *run) end() bool {
	f := &rn.frames[rn.depth-1]
	incomplete := false
	if f.run != nil {
		incomplete = !f.contentBad && !f.run.Accepting()
		rn.pool[f.sym][rn.free[f.sym]] = f.run
		rn.free[f.sym]++
		f.run = nil
	}
	rn.depth--
	return incomplete
}

// text records a non-blank character-data run in the innermost element,
// reporting whether its content model rejects text there. Adjacent runs
// form one text node.
//
//xic:hotpath
func (rn *run) text() bool {
	f := &rn.frames[rn.depth-1]
	if f.lastWasText {
		return false
	}
	f.lastWasText = true
	if f.run != nil && !f.contentBad && !f.run.Step(dtd.TextSymbol) {
		f.contentBad = true
		return true
	}
	return false
}

// ---- violation reports (cold) -------------------------------------------

// reportStart describes the problems open and bind found with the element
// just pushed, in document order: the root type, the parent's content
// model, the element's own declaration and its attributes. The caller has
// set an undeclared element's label; extra lists its undeclared
// attributes, which are reported in name order.
func (rn *run) reportStart(problems uint8, extra []string) {
	f := &rn.frames[rn.depth-1]
	if problems&undeclared != 0 {
		if rn.depth > 1 {
			parent := &rn.frames[rn.depth-2]
			if parent.undeclared == nil {
				parent.undeclared = make(map[string]int)
			}
			f.index = parent.undeclared[f.label]
			parent.undeclared[f.label]++
			if parent.run != nil && !parent.contentBad {
				parent.contentBad = true
				problems |= badContent
			}
		}
	}
	if problems&badRoot != 0 && !rn.drop() {
		rn.violate(nil, f.label, "root is %q, DTD requires %q", f.label, rn.c.d.Root)
	}
	if problems&badContent != 0 && !rn.drop() {
		parent := &rn.frames[rn.depth-2]
		p := rn.pathOf(rn.depth - 1)
		rn.violate(nil, p, "children of %s do not match content model %s: %q cannot follow",
			p, rn.c.types[parent.sym].decl.Content, f.label)
	}
	if problems&undeclared != 0 && !rn.drop() {
		rn.violate(nil, rn.pathOf(rn.depth), "element type %q is not declared", f.label)
	}
	if problems&badAttrs == 0 {
		return
	}
	for slot, want := range rn.c.types[f.sym].decl.Attrs {
		if rn.have[slot] != rn.gen && !rn.drop() {
			p := rn.pathOf(rn.depth)
			rn.violate(nil, p, "element %s lacks required attribute %q", p, want)
		}
	}
	sort.Strings(extra)
	for _, a := range extra {
		if !rn.drop() {
			p := rn.pathOf(rn.depth)
			rn.violate(nil, p, "element %s has undeclared attribute %q", p, a)
		}
	}
}

// reportIncomplete describes the element end just popped whose children
// stopped short of its content model.
func (rn *run) reportIncomplete() {
	if rn.drop() {
		return
	}
	f := &rn.frames[rn.depth]
	p := rn.pathOf(rn.depth + 1)
	rn.violate(nil, p, "children of %s do not match content model %s: sequence is incomplete",
		p, rn.c.types[f.sym].decl.Content)
}

// reportText describes text its element's content model rejects.
func (rn *run) reportText() {
	if rn.drop() {
		return
	}
	f := &rn.frames[rn.depth-1]
	p := rn.pathOf(rn.depth)
	rn.violate(nil, p, "children of %s do not match content model %s: unexpected text content",
		p, rn.c.types[f.sym].decl.Content)
}

// drop reports whether the report is full, counting the violation it then
// drops. Callers check it before building a violation's path or message,
// so violations past the cap cost O(1).
func (rn *run) drop() bool {
	if len(rn.report.Violations) < rn.max {
		return false
	}
	rn.report.Truncated = true
	rn.report.Dropped++
	return true
}

// pathOf renders the element path of frames[:depth] in xmltree.Tree.Path
// notation. Rendered prefixes are kept across calls and invalidated by
// push, so successive violations along one branch extend the previous
// path instead of rebuilding it.
func (rn *run) pathOf(depth int) string {
	for i := rn.pathValid; i < depth; i++ {
		f := &rn.frames[i]
		b := rn.path[:0]
		if i > 0 {
			b = append(rn.path[:rn.frames[i-1].pathEnd], '/')
		}
		b = append(b, f.label...)
		if i > 0 {
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(f.index), 10)
			b = append(b, ']')
		}
		f.pathEnd = len(b)
		rn.path = b
	}
	rn.pathValid = max(rn.pathValid, depth)
	if depth == 0 {
		return ""
	}
	return string(rn.path[:rn.frames[depth-1].pathEnd])
}

// violate appends a violation at the current stream position; callers
// have checked drop.
func (rn *run) violate(c constraint.Constraint, path, format string, args ...any) {
	line, off := rn.at(SrcPos{Line: rn.line, Off: rn.off})
	rn.report.Violations = append(rn.report.Violations,
		Violation{Path: path, Line: line, Offset: off, Constraint: c, Msg: fmt.Sprintf(format, args...)})
}

// at returns the line and offset a violation reports for a position:
// none when walking a tree, whose positions are element ordinals.
func (rn *run) at(p SrcPos) (int, int64) {
	if rn.sc == nil {
		return 0, 0
	}
	return p.Line, p.Off
}

// add appends an end-of-document violation, enforcing the report bound.
func (rn *run) add(v Violation) {
	if !rn.drop() {
		rn.report.Violations = append(rn.report.Violations, v)
	}
}

// tupleVals fills dst with the kept values of the attribute slots,
// reporting whether all are present. Nodes lacking a referenced attribute
// contribute no tuple, exactly as in constraint.Satisfied.
//
//xic:hotpath
func (rn *run) tupleVals(slots []int32, dst []string) bool {
	for i, slot := range slots {
		if slot < 0 || rn.have[slot] != rn.gen {
			return false
		}
		dst[i] = rn.kept[slot]
	}
	return true
}

// tupleKey encodes one attribute tuple as a comparable index key. The
// unary case — by far the common one for keys — is the raw value, with no
// allocation; wider tuples pay constraint.TupleKey's length-prefixed
// encoding. Every index in this file keys through here, so the two
// encodings never mix within one collector.
//
//xic:hotpath
func tupleKey(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	return constraint.TupleKey(vals) //xic:ignore hotalloc multi-attribute tuples pay one encode per element; the common unary case takes the zero-alloc path above
}

// ---- constraint state --------------------------------------------------

// collector receives every element of one type during the pass, reading
// the element's attributes through run.tupleVals.
type collector interface {
	element(rn *run)
}

// finisher emits the verdicts that only exist at end-of-document.
type finisher interface {
	finish(rn *run)
}

// newConstraintState instantiates fresh per-document collectors for the
// compiled constraint set, grouped by the element symbol they observe. The
// collectors are streaming views over the incremental indexes of
// index.go; retain disables the drop-the-index-early optimization so the
// returned Indexes stay complete and support removal.
func (c *Checker) newConstraintState(retain bool) ([][]collector, []finisher, *Indexes) {
	bySym := make([][]collector, len(c.types))
	var finishers []finisher
	idxs := &Indexes{}
	reg := func(label string, col collector) {
		if sym := c.symbol(label); sym >= 0 {
			bySym[sym] = append(bySym[sym], col)
		}
	}
	for _, con := range c.sigma {
		switch x := con.(type) {
		case constraint.Key:
			ki := NewKeyIndex(x.Type, x.Attrs)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Key: ki})
			reg(x.Type, c.newKeyCol(x, ki))
		case constraint.ForeignKey:
			k := x.Key()
			ki := NewKeyIndex(k.Type, k.Attrs)
			inc := NewInclusionIndex(x.Inclusion)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Key: ki, Incl: inc})
			reg(k.Type, c.newKeyCol(x, ki))
			ic := c.newInclCol(x, inc, false)
			reg(x.Child, (*inclusionChild)(ic))
			reg(x.Parent, (*inclusionParent)(ic))
			finishers = append(finishers, ic)
		case constraint.Inclusion:
			inc := NewInclusionIndex(x)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Incl: inc})
			ic := c.newInclCol(x, inc, false)
			reg(x.Child, (*inclusionChild)(ic))
			reg(x.Parent, (*inclusionParent)(ic))
			finishers = append(finishers, ic)
		case constraint.NotKey:
			ki := NewKeyIndex(x.Type, []string{x.Attr})
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Key: ki})
			nk := &notKeyCol{c: x, idx: ki, slot: c.slots(x.Type, []string{x.Attr}), val: make([]string, 1), retain: retain}
			reg(x.Type, nk)
			finishers = append(finishers, nk)
		case constraint.NotInclusion:
			inc := NewInclusionIndex(x.Inclusion())
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Incl: inc})
			ic := c.newInclCol(x, inc, true)
			reg(inc.ChildType, (*inclusionChild)(ic))
			reg(inc.ParentType, (*inclusionParent)(ic))
			finishers = append(finishers, ic)
		}
	}
	return bySym, finishers, idxs
}

// keyCol enforces τ[X] → τ (for keys and the key half of foreign keys) as
// a streaming view over a KeyIndex: a repeated tuple is a violation at
// the repeating element.
type keyCol struct {
	c     constraint.Constraint
	idx   *KeyIndex
	slots []int32
	vals  []string
}

func (c *Checker) newKeyCol(con constraint.Constraint, idx *KeyIndex) *keyCol {
	return &keyCol{c: con, idx: idx, slots: c.slots(idx.Type, idx.Attrs), vals: make([]string, len(idx.Attrs))}
}

//xic:hotpath
func (k *keyCol) element(rn *run) {
	if !rn.tupleVals(k.slots, k.vals) {
		return // no tuple, cannot collide (constraint.Satisfied semantics)
	}
	t := tupleKey(k.vals)
	if _, dup := k.idx.Add(t, SrcPos{Line: rn.line, Off: rn.off}); dup {
		k.reportDup(rn) //xic:ignore hotalloc violation path: fires once per duplicate, steady state is valid documents
	}
}

// reportDup is the cold duplicate-key violation path.
func (k *keyCol) reportDup(rn *run) {
	if rn.drop() {
		return
	}
	rn.violate(k.c, rn.pathOf(rn.depth),
		"duplicate key: this %s agrees with an earlier %s on (%s)",
		k.idx.Type, k.idx.Type, strings.Join(k.idx.Attrs, ", "))
}

// notKeyCol enforces the negation τ.l ↛ τ over a KeyIndex: some
// duplicate must exist by end-of-document. In streaming mode the index
// is dropped as soon as a duplicate is witnessed — the verdict can no
// longer change; retained mode keeps it complete so removals work.
type notKeyCol struct {
	c      constraint.NotKey
	idx    *KeyIndex
	slot   []int32
	val    []string
	sat    bool
	retain bool
}

//xic:hotpath
func (n *notKeyCol) element(rn *run) {
	if n.sat && !n.retain {
		return // satisfied; index already dropped
	}
	if !rn.tupleVals(n.slot, n.val) {
		return
	}
	if _, dup := n.idx.Add(n.val[0], SrcPos{Line: rn.line, Off: rn.off}); dup {
		n.sat = true
		if !n.retain {
			n.idx.seen = nil // satisfied; stop growing the index
		}
	}
}

func (n *notKeyCol) finish(rn *run) {
	if n.sat || n.idx.Dups() > 0 {
		return
	}
	rn.add(Violation{Path: n.c.Type, Line: 0, Offset: -1, Constraint: n.c,
		Msg: fmt.Sprintf("negated key requires two %s elements sharing %q, but all values are distinct", n.c.Type, n.c.Attr)})
}

// inclCol enforces τ1[X] ⊆ τ2[Y] (or its negation) over an
// InclusionIndex: child tuples pend until end-of-document, when they are
// resolved against the parent tuple set — so a foreign key may reference
// a parent that appears later in the document. Memory is one map entry
// per distinct tuple.
type inclCol struct {
	c             constraint.Constraint
	idx           *InclusionIndex
	neg           bool
	lacksReported bool
	childSlots    []int32
	parentSlots   []int32
	vals          []string
}

func (c *Checker) newInclCol(reported constraint.Constraint, idx *InclusionIndex, neg bool) *inclCol {
	return &inclCol{
		c: reported, idx: idx, neg: neg,
		childSlots:  c.slots(idx.ChildType, idx.ChildAttrs),
		parentSlots: c.slots(idx.ParentType, idx.ParentAttrs),
		vals:        make([]string, max(len(idx.ChildAttrs), len(idx.ParentAttrs))),
	}
}

// inclusionChild and inclusionParent are the two element-type views of one
// shared inclCol (child and parent types may even coincide).
type inclusionChild inclCol

//xic:hotpath
func (ic *inclusionChild) element(rn *run) {
	in := (*inclCol)(ic)
	vals := in.vals[:len(in.childSlots)]
	if !rn.tupleVals(in.childSlots, vals) {
		in.idx.AddLacking()
		if !in.neg && !in.lacksReported {
			in.reportLacks(rn) //xic:ignore hotalloc violation path: fires at most once per document, steady state is valid documents
		}
		in.lacksReported = true
		return
	}
	in.idx.AddChild(tupleKey(vals), SrcPos{Line: rn.line, Off: rn.off})
}

// reportLacks is the cold missing-tuple violation path.
func (in *inclCol) reportLacks(rn *run) {
	if rn.drop() {
		return
	}
	rn.violate(in.c, rn.pathOf(rn.depth),
		"%s element lacks (%s) and cannot be matched", in.idx.ChildType, strings.Join(in.idx.ChildAttrs, ", "))
}

type inclusionParent inclCol

//xic:hotpath
func (ip *inclusionParent) element(rn *run) {
	in := (*inclCol)(ip)
	vals := in.vals[:len(in.parentSlots)]
	if !rn.tupleVals(in.parentSlots, vals) {
		return // contributes no tuple
	}
	in.idx.AddParent(tupleKey(vals))
}

func (in *inclCol) finish(rn *run) {
	if in.neg {
		if in.idx.Lacking() > 0 || in.idx.Unmatched() > 0 {
			return // some reference dangles (or lacks a tuple), negation holds
		}
		rn.add(Violation{Path: in.idx.ChildType, Line: 0, Offset: -1, Constraint: in.c,
			Msg: fmt.Sprintf("negated inclusion requires some %s value of %s unmatched by %s, but all are matched",
				strings.Join(in.idx.ChildAttrs, ", "), in.idx.ChildType, in.idx.ParentType)})
		return
	}
	var missing []SrcPos
	in.idx.EachUnmatched(func(t string, first SrcPos) {
		missing = append(missing, first)
	})
	sort.Slice(missing, func(i, j int) bool { return missing[i].Off < missing[j].Off })
	for _, pos := range missing {
		if rn.drop() {
			continue
		}
		line, off := rn.at(pos)
		rn.report.Violations = append(rn.report.Violations, Violation{Path: in.idx.ChildType, Line: line, Offset: off, Constraint: in.c,
			Msg: fmt.Sprintf("(%s) value of this %s matches no %s element",
				strings.Join(in.idx.ChildAttrs, ", "), in.idx.ChildType, in.idx.ParentType)})
	}
}
