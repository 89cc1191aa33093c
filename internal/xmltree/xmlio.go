package xmltree

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
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
	b := treeBuilder{intern: make(map[string]string)}
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		switch kind {
		case KindEOF:
			return NewTree(b.root), nil
		case KindStart:
			b.flushText()
			n := NewElement(b.name(s.Name()))
			if attrs := s.Attrs(); len(attrs) > 0 {
				n.Attrs = make(map[string]string, len(attrs))
				for _, a := range attrs {
					n.Attrs[b.name(a.Name)] = string(a.Value)
				}
			}
			if len(b.stack) == 0 {
				b.root = n
			} else {
				parent := b.stack[len(b.stack)-1]
				parent.Children = append(parent.Children, n)
			}
			b.stack = append(b.stack, n)
		case KindEnd:
			b.flushText()
			b.stack = b.stack[:len(b.stack)-1]
		case KindText:
			b.text = append(b.text, s.Text()...)
		}
	}
}

// treeBuilder is Parse's state: the open elements, the pending text of
// the current text node, and the interned element and attribute names,
// which repeat throughout a document.
type treeBuilder struct {
	root   *Node
	stack  []*Node
	text   []byte
	intern map[string]string
}

// name returns the interned copy of a scanned name.
func (b *treeBuilder) name(n []byte) string {
	if v, ok := b.intern[string(n)]; ok {
		return v
	}
	v := string(n)
	b.intern[v] = v
	return v
}

// flushText ends the pending text node, if any.
func (b *treeBuilder) flushText() {
	if len(b.text) == 0 {
		return
	}
	parent := b.stack[len(b.stack)-1]
	parent.Children = append(parent.Children, NewText(string(b.text)))
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
