package xmltree

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"

	"xic/internal/dtd"
)

// ParseError is a document syntax or structure error with its source
// position: the 1-based line and the 0-based byte offset of the offending
// construct, both as encoding/xml would report them. It unwraps to
// ErrUnsupported for the documents the scanner deliberately rejects.
type ParseError struct {
	Line   int
	Offset int64
	Msg    string
	Err    error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmltree: line %d: %s", e.Line, e.Msg)
}

// Unwrap returns the underlying cause, if any.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads an XML document into a tree. Whitespace-only character data
// between elements is discarded (it is markup formatting, not content);
// other character data becomes text nodes, with adjacent runs coalesced.
// Processing instructions, comments and directives are skipped, matching
// the simplifications of the paper's model. Errors are *ParseError values
// carrying the line and byte offset of the offending construct.
func Parse(r io.Reader) (*Tree, error) {
	s := NewScanner(r)
	var b Builder
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		switch kind {
		case KindEOF:
			return b.Tree(), nil
		case KindStart:
			b.Start(s.Name(), s.Attrs())
		case KindEnd:
			b.End()
		case KindText:
			b.Text(s.Text())
		}
	}
}

// Builder assembles a tree from a Scanner's token stream. Parse drives
// it, and so does the streaming checker when it retains a document
// (internal/doccheck), so both build the same tree: names interned, one
// attribute map per element, and the character-data runs between two
// tags — split by comments, CDATA sections or processing instructions —
// coalesced into one text node. The zero Builder is ready to use.
type Builder struct {
	kids   []*Node // the root, then the open elements' children so far
	marks  []int   // where each open element's children start in kids
	text   []byte
	intern map[string]string

	// Nodes and child lists are carved from blocks that double with the
	// tree, so a large document costs a few allocations per 256 nodes; a
	// block stays allocated while any node carved from it is reachable.
	nodes []Node
	lists []*Node
	built int // nodes built so far
}

// carve takes k elements off the front of *block, first replacing it by a
// fresh block of max(k, size) elements if it is too short. The result has
// no spare capacity, so appending to it reallocates.
func carve[T any](block *[]T, k, size int) []T {
	if k > len(*block) {
		*block = make([]T, max(k, size))
	}
	s := (*block)[:k:k]
	*block = (*block)[k:]
	return s
}

// node returns a zeroed node.
func (b *Builder) node() *Node {
	b.built++
	return &carve(&b.nodes, 1, min(b.built, 256))[0]
}

// Start opens an element with the scanned name and attributes, copying
// every value, and returns its node.
func (b *Builder) Start(name []byte, attrs []Attr) *Node {
	b.flushText()
	n := b.node()
	n.Label = b.name(name)
	if len(attrs) > 0 {
		n.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			n.Attrs[b.name(a.Name)] = string(a.Value)
		}
	}
	b.kids = append(b.kids, n)
	b.marks = append(b.marks, len(b.kids))
	return n
}

// Text appends a character-data run to the innermost element's pending
// text node.
func (b *Builder) Text(t []byte) {
	b.text = append(b.text, t...)
}

// End closes the innermost element and returns its node.
func (b *Builder) End() *Node {
	b.flushText()
	top := len(b.marks) - 1
	mark := b.marks[top]
	n := b.kids[mark-1]
	if mark < len(b.kids) {
		n.Children = carve(&b.lists, len(b.kids)-mark, min(b.built, 1024))
		copy(n.Children, b.kids[mark:])
		b.kids = b.kids[:mark]
	}
	b.marks = b.marks[:top]
	return n
}

// Tree returns the tree once its root element has ended.
func (b *Builder) Tree() *Tree { return NewTree(b.kids[0]) }

// name returns the interned copy of a scanned name.
func (b *Builder) name(n []byte) string {
	if v, ok := b.intern[string(n)]; ok {
		return v
	}
	if b.intern == nil {
		b.intern = make(map[string]string)
	}
	v := string(n)
	b.intern[v] = v
	return v
}

// flushText ends the pending text node, if any.
func (b *Builder) flushText() {
	if len(b.text) == 0 {
		return
	}
	n := b.node()
	n.Label, n.Value = dtd.TextSymbol, string(b.text)
	b.kids = append(b.kids, n)
	b.text = b.text[:0]
}

// ParseString is Parse on a string.
func ParseString(s string) (*Tree, error) {
	return Parse(strings.NewReader(s))
}

// Serialize renders the tree as indented XML text. Attributes are emitted
// in sorted name order so output is deterministic.
func Serialize(t *Tree) string {
	if t == nil || t.Root == nil {
		return ""
	}
	var b strings.Builder
	writeNode(&b, t.Root, 0)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsText() {
		b.WriteString(indent)
		escapeText(b, n.Value)
		b.WriteString("\n")
		return
	}
	b.WriteString(indent)
	b.WriteString("<")
	b.WriteString(n.Label)
	names := make([]string, 0, len(n.Attrs))
	for a := range n.Attrs {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		b.WriteString(" ")
		b.WriteString(a)
		b.WriteString(`="`)
		escapeText(b, n.Attrs[a])
		b.WriteString(`"`)
	}
	if len(n.Children) == 0 {
		b.WriteString("/>\n")
		return
	}
	// A single text child is written inline for readability.
	if len(n.Children) == 1 && n.Children[0].IsText() {
		b.WriteString(">")
		escapeText(b, n.Children[0].Value)
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteString(">\n")
		return
	}
	b.WriteString(">\n")
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
	b.WriteString(indent)
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteString(">\n")
}

// escapeText writes s with the escaping of encoding/xml's EscapeText: the
// five markup characters, tab, newline and carriage return as references,
// and bytes that are not XML characters as U+FFFD.
func escapeText(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if inCharRange(r) && !(r == utf8.RuneError && width == 1) {
				continue
			}
			esc = "\uFFFD"
		}
		b.WriteString(s[last : i-width])
		b.WriteString(esc)
		last = i
	}
	b.WriteString(s[last:])
}
