package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies the tokens a Scanner produces.
type Kind uint8

const (
	// KindEOF is the end of a well-formed document.
	KindEOF Kind = iota
	// KindStart is a start tag; Name and Attrs describe it. A
	// self-closing tag yields KindStart followed by KindEnd.
	KindStart
	// KindEnd is an end tag; Name is its local name.
	KindEnd
	// KindText is one run of character data (a text run or a CDATA
	// section) inside the root element that is not entirely whitespace.
	// Adjacent runs belong to the same text node.
	KindText
)

// Attr is one attribute of a start tag: its local name and its decoded
// value. Both are views into the scanner's buffer, valid until the next
// call to Next; a consumer that keeps either must copy it.
type Attr struct {
	Name, Value []byte
}

// ErrUnsupported marks the documents the scanner rejects although
// encoding/xml accepts them; see the package documentation for the list.
// A *ParseError for such a document unwraps to it.
var ErrUnsupported = errors.New("xmltree: unsupported XML construct")

// initialBufSize is the scanner's starting buffer. The buffer doubles only
// while one token outgrows half of it.
const initialBufSize = 4096

// Scanner tokenises an XML document read from an io.Reader into start
// tags, end tags and character data, in one pass over a buffer of chunks.
// It accepts exactly the documents encoding/xml's strict Decoder accepts,
// with the positions encoding/xml reports, minus the divergences listed in
// the package documentation, and it enforces the well-formedness rules of
// the tree model on top: one root element, no character data outside it,
// and attribute names unique by local name. Comments, processing
// instructions and the DOCTYPE directive are skipped; the five predefined
// entities and character references are decoded; xmlns attributes are
// dropped; names are reported by local part.
//
// Memory is bounded by the largest token: Next keeps only the bytes of the
// token in progress and doubles the buffer while one token outgrows it.
//
// The work is split in two layers. Next, the cold layer, frames each
// token — it refills the buffer until the whole token is in it — skips
// comments, processing instructions and directives, and turns error codes
// into *ParseError values. The hot layer (scanStart, scanEnd, scanText)
// then tokenises the framed bytes with no allocation and no refills.
type Scanner struct {
	r    io.Reader
	rerr error // sticky read error; io.EOF once the input is exhausted
	err  error // sticky scan error

	buf  []byte
	tok  int   // start of the construct in progress; fill keeps buf[tok:]
	pos  int   // read position: buf[:pos] is consumed
	scan int   // framing cursor
	end  int   // end of buffered input
	base int64 // input offset of buf[0]

	line   int // 1 + newlines in the input before buf[lineAt]
	lineAt int

	// The current token.
	name  []byte
	attrs []Attr
	text  []byte

	// Hot-layer scratch; capacity is ensured by the cold layer.
	raw       []rawAttr
	out       []byte // the text scanText just read
	dec       []byte // decoded texts of the current token
	open      []int  // ends of the open elements' qualified names in names
	names     []byte // qualified names of the open elements, concatenated
	seen      []int32
	needClose bool
	rootSeen  bool

	// The error the hot layer stopped on.
	ecode      errCode
	ea, eb, ec int
	erune      rune
}

// rawAttr is an attribute as scanned: buffer offsets of its qualified
// name and of its local part, and its decoded value.
type rawAttr struct {
	qs, ls, qe int
	val        []byte
}

// NewScanner returns a scanner reading the document from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, initialBufSize), line: 1}
}

// Name returns the local name of the current start or end tag.
func (s *Scanner) Name() []byte { return s.name }

// Attrs returns the attributes of the current start tag, xmlns
// declarations excluded, in document order.
func (s *Scanner) Attrs() []Attr { return s.attrs }

// Text returns the decoded character data of the current KindText token.
func (s *Scanner) Text() []byte { return s.text }

// Offset returns the input offset just past the current token: the value
// encoding/xml's Decoder.InputOffset reports after the same token.
func (s *Scanner) Offset() int64 { return s.base + int64(s.pos) }

// Line returns the 1-based line holding Offset, counting '\n' bytes.
func (s *Scanner) Line() int {
	s.line += bytes.Count(s.buf[s.lineAt:s.pos], newline)
	s.lineAt = s.pos
	return s.line
}

var newline = []byte{'\n'}

// Next advances to the next token. At the end of a well-formed document it
// returns KindEOF; a malformed document yields a *ParseError carrying the
// line and offset encoding/xml would report, and a failing reader its
// error. Errors are sticky.
func (s *Scanner) Next() (Kind, error) {
	if s.err != nil {
		return KindEOF, s.err
	}
	if s.needClose {
		s.needClose = false
		s.popOpen()
		return KindEnd, nil
	}
	for {
		s.tok = s.pos
		if s.pos == s.end && !s.fill() {
			return s.atEOF()
		}
		if s.buf[s.pos] != '<' {
			if !s.frameAny("<") {
				return KindEOF, s.err
			}
			s.reserveDecode()
			if !s.scanText(0, false) {
				return KindEOF, s.hotError()
			}
			if k, ok := s.textToken(); ok {
				return k, s.err
			}
			continue
		}
		s.pos++
		b, ok := s.mustgetc()
		if !ok {
			return KindEOF, s.err
		}
		switch b {
		case '/':
			if !s.frameAny("<>") {
				return KindEOF, s.err
			}
			if !s.scanEnd() {
				return KindEOF, s.hotError()
			}
			return KindEnd, nil
		case '?':
			if !s.skipPI() {
				return KindEOF, s.err
			}
		case '!':
			if b, ok = s.mustgetc(); !ok {
				return KindEOF, s.err
			}
			switch b {
			case '-':
				ok = s.skipComment()
			case '[':
				var k Kind
				if k, ok = s.cdata(); ok && k == KindText {
					return k, nil
				}
			default:
				ok = s.skipDirective()
			}
			if !ok {
				return KindEOF, s.err
			}
		default:
			s.pos--
			if !s.frameStart() {
				return KindEOF, s.err
			}
			if !s.scanStart() {
				return KindEOF, s.hotError()
			}
			return KindStart, nil
		}
	}
}

// textToken classifies the character data just scanned: blank runs
// are dropped, and other runs outside the root element are an error.
func (s *Scanner) textToken() (Kind, bool) {
	s.text = s.out
	if blank(s.text) {
		return KindEOF, false
	}
	if len(s.open) == 0 {
		s.fail("character data outside the root element", nil)
		return KindEOF, true
	}
	return KindText, true
}

// cdata scans a CDATA section after "<![".
func (s *Scanner) cdata() (Kind, bool) {
	for i := 0; i < len("CDATA["); i++ {
		b, ok := s.mustgetc()
		if !ok {
			return KindEOF, false
		}
		if b != "CDATA["[i] {
			s.fail("invalid <![ sequence", nil)
			return KindEOF, false
		}
	}
	if !s.frameSeq(cdataEnd) {
		return KindEOF, false
	}
	s.reserveDecode()
	if !s.scanText(0, true) {
		s.err = s.hotError()
		return KindEOF, false
	}
	k, _ := s.textToken()
	return k, s.err == nil
}

var (
	cdataEnd = []byte("]]>")
	eqSign   = []byte("=")
)

// tagStops classifies the bytes that stop start-tag framing, by state:
// outside attribute values, inside a "-quoted one, inside a '-quoted one.
var tagStops = func() (t [256]uint8) {
	t['<'] = tagStopOutside | tagStopDouble | tagStopSingle
	t['>'] = tagStopOutside
	t['"'] = tagStopOutside | tagStopDouble
	t['\''] = tagStopOutside | tagStopSingle
	return t
}()

const (
	tagStopOutside uint8 = 1 << iota
	tagStopDouble
	tagStopSingle
)

// atEOF ends the token stream once the input is exhausted.
func (s *Scanner) atEOF() (Kind, error) {
	switch {
	case s.rerr != io.EOF:
		s.readFailed()
	case len(s.open) > 0:
		s.fail("unexpected EOF", nil)
	case !s.rootSeen:
		s.fail("no root element", nil)
	default:
		return KindEOF, nil
	}
	return KindEOF, s.err
}

// ---- cold layer: buffering, framing, skipped constructs, errors ---------

// fill reads more input, keeping buf[tok:] and shifting every cursor when
// it compacts. A full buffer is compacted when the construct in progress
// occupies at most half of it and doubled otherwise, so each byte is
// copied O(1) times amortised. It reports whether new bytes arrived.
func (s *Scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	if s.end == len(s.buf) {
		s.line += bytes.Count(s.buf[s.lineAt:s.tok], newline)
		live := s.end - s.tok
		buf := s.buf
		if live > len(buf)/2 {
			buf = make([]byte, 2*len(buf))
		}
		copy(buf, s.buf[s.tok:s.end])
		shift := s.tok
		s.buf = buf
		s.base += int64(shift)
		s.tok, s.pos, s.scan, s.end, s.lineAt = 0, s.pos-shift, s.scan-shift, live, 0
	}
	for {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
}

// getc consumes one byte, refilling as needed; false at end of input.
func (s *Scanner) getc() (byte, bool) {
	if s.pos == s.end && !s.fill() {
		return 0, false
	}
	s.pos++
	return s.buf[s.pos-1], true
}

// mustgetc is getc where the end of input is an error.
func (s *Scanner) mustgetc() (byte, bool) {
	b, ok := s.getc()
	if !ok {
		s.eofError("unexpected EOF")
	}
	return b, ok
}

// eofError records running out of input inside a construct.
func (s *Scanner) eofError(msg string) {
	if s.rerr != io.EOF {
		s.readFailed()
		return
	}
	s.fail(msg, nil)
}

func (s *Scanner) readFailed() {
	s.err = fmt.Errorf("xmltree: read: %w", s.rerr)
}

// fail records a positioned syntax error at the read position.
func (s *Scanner) fail(msg string, cause error) {
	s.err = &ParseError{Line: s.Line(), Offset: s.Offset(), Msg: msg, Err: cause}
}

// frameAny buffers input until one of the bytes in stops occurs at or
// after pos, or the input ends. It is false only on a read error. Text
// frames to its ending '<'; an end tag to its '>' or to a '<' that ends it
// early.
func (s *Scanner) frameAny(stops string) bool {
	s.scan = s.pos
	for {
		if bytes.IndexAny(s.buf[s.scan:s.end], stops) >= 0 {
			return true
		}
		s.scan = s.end
		if !s.fill() {
			return s.framedEOF()
		}
	}
}

// frameSeq buffers input until seq occurs at or after pos, or the input
// ends.
func (s *Scanner) frameSeq(seq []byte) bool {
	s.scan = s.pos
	for {
		if bytes.Index(s.buf[s.scan:s.end], seq) >= 0 {
			return true
		}
		s.scan = max(s.pos, s.end-len(seq)+1)
		if !s.fill() {
			return s.framedEOF()
		}
	}
}

// framedEOF ends framing at the end of input: a read error fails the
// scan, while at EOF the hot layer reports the truncated token itself.
func (s *Scanner) framedEOF() bool {
	if s.rerr != io.EOF {
		s.readFailed()
		return false
	}
	return true
}

// frameStart buffers a whole start tag — through the first '>' outside
// quotes — and sizes the hot layer's scratch for it. A '<' anywhere in a
// tag stops the hot layer, so framing stops there too: a malformed tag
// cannot make the scanner buffer the rest of the document. Every
// attribute the hot layer can scan has its own '=', so the tag's '='
// count bounds the attribute count.
func (s *Scanner) frameStart() bool {
	s.scan = s.pos
	var quote byte // delimiter of the attribute value being framed, or 0
	for {
		mask := tagStopOutside
		switch quote {
		case '"':
			mask = tagStopDouble
		case '\'':
			mask = tagStopSingle
		}
		i := s.scan
		for i < s.end && tagStops[s.buf[i]]&mask == 0 {
			i++
		}
		s.scan = i
		if i < s.end {
			c := s.buf[i]
			if c == '<' || c == '>' {
				break
			}
			if quote == 0 {
				quote = c
			} else {
				quote = 0
			}
			s.scan++
			continue
		}
		if !s.fill() {
			if !s.framedEOF() {
				return false
			}
			break
		}
	}
	eqs := bytes.Count(s.buf[s.pos:min(s.scan+1, s.end)], eqSign)
	if cap(s.raw) < eqs {
		s.raw = make([]rawAttr, 0, 2*eqs)
		s.attrs = make([]Attr, 0, 2*eqs)
	}
	if eqs > smallAttrs && len(s.seen) < 2*eqs {
		n := 16
		for n < 2*eqs {
			n *= 2
		}
		s.seen = make([]int32, n)
	}
	s.reserveDecode()
	if len(s.open) == cap(s.open) {
		s.open = append(s.open, 0)[:len(s.open)]
	}
	if need := len(s.names) + s.scan + 1 - s.pos; cap(s.names) < need {
		names := make([]byte, len(s.names), 2*need)
		copy(names, s.names)
		s.names = names
	}
	return true
}

// reserveDecode empties the decode buffer and sizes it for any token
// framed in the buffered input: decoding never grows text.
func (s *Scanner) reserveDecode() {
	if n := s.end - s.pos; cap(s.dec) < n {
		s.dec = make([]byte, 0, n)
	}
	s.dec = s.dec[:0]
}

// skipPI skips a processing instruction after "<?", enforcing what
// encoding/xml enforces: a valid target name and, for the XML declaration,
// version 1.0 and the UTF-8 encoding.
func (s *Scanner) skipPI() bool {
	ts := s.pos - s.tok
	b, ok := s.mustgetc()
	if !ok {
		return false
	}
	if b < utf8.RuneSelf && !isNameByte(b) {
		s.pos--
		s.fail("expected target name after <?", nil)
		return false
	}
	for {
		if b, ok = s.mustgetc(); !ok {
			return false
		}
		if b < utf8.RuneSelf && !isNameByte(b) {
			s.pos--
			break
		}
	}
	target := s.buf[s.tok+ts : s.pos]
	if !validName(target) {
		s.fail("invalid XML name: "+string(target), nil)
		return false
	}
	isDecl := string(target) == "xml"
	s.skipSpace()
	ds := s.pos - s.tok
	var b0 byte
	for {
		if b, ok = s.mustgetc(); !ok {
			return false
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if !isDecl {
		return true
	}
	content := string(s.buf[s.tok+ds : s.pos-2])
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		s.fail(fmt.Sprintf("unsupported version %q; only version 1.0 is supported", ver), nil)
		return false
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		s.fail(fmt.Sprintf("unsupported encoding %q; only UTF-8 is supported", enc), nil)
		return false
	}
	return true
}

// procInstParam extracts the quoted value of param="…" or param='…' from
// the content of an XML declaration, or "" when absent. It matches the
// first occurrence of param= followed by a quote, as encoding/xml does.
func procInstParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		q := s[i+k+len(param)]
		i += k + len(param) + 1
		if q != '\'' && q != '"' {
			continue
		}
		j := strings.IndexByte(s[i:], q)
		if j < 0 {
			return ""
		}
		return s[i : i+j]
	}
	return ""
}

// skipSpace consumes XML whitespace; the end of input ends it silently.
func (s *Scanner) skipSpace() {
	for {
		b, ok := s.getc()
		if !ok {
			return
		}
		if !isSpace(b) {
			s.pos--
			return
		}
	}
}

// skipComment skips a comment after "<!-".
func (s *Scanner) skipComment() bool {
	b, ok := s.mustgetc()
	if !ok {
		return false
	}
	if b != '-' {
		s.fail("invalid sequence <!- not part of <!--", nil)
		return false
	}
	var b0, b1 byte
	for {
		if b, ok = s.mustgetc(); !ok {
			return false
		}
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				s.fail(`invalid sequence "--" not allowed in comments`, nil)
				return false
			}
			return true
		}
		b0, b1 = b1, b
	}
}

// skipDirective skips a directive such as <!DOCTYPE …> after "<!" and its
// first byte, which opens nothing even when it is a quote. Quoted strings,
// nested <…> pairs and embedded comments are tracked exactly as
// encoding/xml tracks them, so the directive ends where encoding/xml's
// ends; its content is not interpreted.
func (s *Scanner) skipDirective() bool {
	var quote byte
	depth := 0
	for {
		b, ok := s.mustgetc()
		if !ok {
			return false
		}
		if quote == 0 && b == '>' && depth == 0 {
			return true
		}
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, ok = s.mustgetc(); !ok {
					return false
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, ok = s.mustgetc(); !ok {
					return false
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// popOpen closes the innermost open element.
func (s *Scanner) popOpen() {
	s.open = s.open[:len(s.open)-1]
	s.names = s.names[:s.openStart(len(s.open))]
}

// openStart returns the offset in names of the i-th open element's name.
func (s *Scanner) openStart(i int) int {
	if i == 0 {
		return 0
	}
	return s.open[i-1]
}

// errCode names the error the hot layer stopped on; hotError renders it.
type errCode uint8

const (
	errEOF errCode = iota + 1
	errEOFCDATA
	errNoElemName
	errNoEndName
	errNoAttrName
	errBadName        // ea:eb is the name
	errSlash          // "/" not followed by ">"
	errNoEq           // attribute name without '='
	errUnquoted       // attribute value without quotes
	errLtInQuote      // '<' inside an attribute value
	errCDATAEnd       // "]]>" in character data
	errEntity         // ea:pos is the reference; ec != 0 if it lacks ';'
	errUTF8           // invalid UTF-8 in decoded text
	errChar           // erune is outside the XML character range
	errEndJunk        // ea:eb is the end tag's local name
	errUnexpectedEnd  // ea:eb is the end tag's local name
	errClosedBy       // ea:eb is the end tag's qualified name
	errCollision      // ea, eb are the colliding raw attributes
	errMultipleRoots  // ea:eb is the local name
	errReservedPrefix // ea:eb is the prefix bound to "xmlns"
)

// hotError renders the hot layer's error code as a *ParseError at the read
// position, records it and returns it.
func (s *Scanner) hotError() error {
	if s.ecode == errEOF && s.rerr != io.EOF && s.rerr != nil {
		s.readFailed()
		return s.err
	}
	var msg string
	var cause error
	span := func() string { return string(s.buf[s.ea:s.eb]) }
	switch s.ecode {
	case errEOF:
		msg = "unexpected EOF"
	case errEOFCDATA:
		msg = "unexpected EOF in CDATA section"
	case errNoElemName:
		msg = "expected element name after <"
	case errNoEndName:
		msg = "expected element name after </"
	case errNoAttrName:
		msg = "expected attribute name in element"
	case errBadName:
		msg = "invalid XML name: " + span()
	case errSlash:
		msg = "expected /> in element"
	case errNoEq:
		msg = "attribute name without = in element"
	case errUnquoted:
		msg = "unquoted or missing attribute value in element"
	case errLtInQuote:
		msg = "unescaped < inside quoted string"
	case errCDATAEnd:
		msg = "unescaped ]]> not in CDATA section"
	case errEntity:
		msg = "invalid character entity " + string(s.buf[s.ea:s.pos])
		if s.ec != 0 {
			msg += " (no semicolon)"
		}
	case errUTF8:
		msg = "invalid UTF-8"
	case errChar:
		msg = fmt.Sprintf("illegal character code %U", s.erune)
	case errEndJunk:
		msg = "invalid characters between </" + span() + " and >"
	case errUnexpectedEnd:
		msg = "unexpected end element </" + span() + ">"
	case errClosedBy:
		msg = s.closedByMsg()
	case errCollision:
		a, b := s.raw[s.ea], s.raw[s.eb]
		msg = fmt.Sprintf("element %q: attributes %s and %s collide on local name %q; values would silently overwrite",
			s.name, s.buf[a.qs:a.qe], s.buf[b.qs:b.qe], s.buf[b.ls:b.qe])
	case errMultipleRoots:
		msg = fmt.Sprintf("multiple root elements (second is %q)", span())
	case errReservedPrefix:
		msg = fmt.Sprintf("namespace prefix %q bound to the reserved name \"xmlns\"", span())
		cause = ErrUnsupported
	}
	s.fail(msg, cause)
	return s.err
}

// closedByMsg renders a mismatched end tag the way encoding/xml does: by
// local names when they differ, by prefixes otherwise.
func (s *Scanner) closedByMsg() string {
	top := len(s.open) - 1
	open := s.names[s.openStart(top):s.open[top]]
	openSpace, openLocal := splitQName(open)
	endSpace, endLocal := splitQName(s.buf[s.ea:s.eb])
	if !bytes.Equal(openLocal, endLocal) {
		return "element <" + string(openLocal) + "> closed by </" + string(endLocal) + ">"
	}
	ns := string(endSpace)
	if ns == "" {
		ns = `""`
	}
	return "element <" + string(openLocal) + "> in space " + string(openSpace) +
		" closed by </" + string(endLocal) + "> in space " + ns
}

// splitQName splits a qualified name at its single colon the way
// encoding/xml does: a name with an empty prefix or local part is all
// local.
func splitQName(q []byte) (space, local []byte) {
	if i := bytes.IndexByte(q, ':'); i > 0 && i < len(q)-1 {
		return q[:i], q[i+1:]
	}
	return nil, q
}

// ---- hot layer: tokenising framed bytes ---------------------------------

// smallAttrs is the attribute count up to which collisions are found by
// comparing every pair; larger tags use the seen hash table.
const smallAttrs = 8

// name scanning outcomes.
const (
	nameOK = iota
	nameNone
	nameEOF
	nameInvalid
	nameColons
)

// scanName consumes a name at pos the way encoding/xml reads one: a run of
// name bytes (any byte at or above utf8.RuneSelf included), validated as a
// whole and split at its colon. It returns the offset where the local part
// starts and an outcome; nameNone consumes nothing, nameInvalid leaves the
// name in ea:eb.
//
//xic:hotpath
func (s *Scanner) scanName() (local, outcome int) {
	buf := s.buf[:s.end]
	start := s.pos
	if start == len(buf) {
		return start, nameEOF
	}
	if c := buf[start]; c < utf8.RuneSelf && !isNameByte(c) {
		return start, nameNone
	}
	i := start + 1
	colons, colon := 0, -1
	if buf[start] == ':' {
		colons, colon = 1, start
	}
	for ; i < len(buf); i++ {
		c := buf[i]
		if c < utf8.RuneSelf && !isNameByte(c) {
			break
		}
		if c == ':' {
			colons++
			colon = i
		}
	}
	s.pos = i
	if i == len(buf) {
		return start, nameEOF
	}
	if !validName(buf[start:i]) {
		s.ea, s.eb = start, i
		return start, nameInvalid
	}
	if colons > 1 {
		return start, nameColons
	}
	if colon > start && colon < i-1 {
		return colon + 1, nameOK
	}
	return start, nameOK
}

// nameError maps a failed scanName outcome to the error encoding/xml
// reports, using missing for an absent or multi-colon name.
//
//xic:hotpath
func (s *Scanner) nameError(outcome int, missing errCode) bool {
	switch outcome {
	case nameEOF:
		s.ecode = errEOF
	case nameInvalid:
		s.ecode = errBadName
	default:
		s.ecode = missing
	}
	return false
}

// skipSpaceHot consumes XML whitespace within the framed token.
//
//xic:hotpath
func (s *Scanner) skipSpaceHot() {
	for s.pos < s.end && isSpace(s.buf[s.pos]) {
		s.pos++
	}
}

// next consumes one byte of the framed token; false at end of input.
//
//xic:hotpath
func (s *Scanner) next() (byte, bool) {
	if s.pos == s.end {
		s.ecode = errEOF
		return 0, false
	}
	s.pos++
	return s.buf[s.pos-1], true
}

// scanStart tokenises a framed start tag at pos, just after '<', through '>' or
// "/>", then applies the model's tag rules: the reserved-prefix
// divergence, unique local attribute names, and a single root.
//
//xic:hotpath
func (s *Scanner) scanStart() bool {
	qs := s.pos
	ls, outcome := s.scanName()
	if outcome != nameOK {
		return s.nameError(outcome, errNoElemName)
	}
	qe := s.pos
	raw := s.raw[:0]
	empty := false
	for {
		s.skipSpaceHot()
		b, ok := s.next()
		if !ok {
			return false
		}
		if b == '/' {
			if b, ok = s.next(); !ok {
				return false
			}
			if b != '>' {
				s.ecode = errSlash
				return false
			}
			empty = true
			break
		}
		if b == '>' {
			break
		}
		s.pos--
		var a rawAttr
		a.qs = s.pos
		if a.ls, outcome = s.scanName(); outcome != nameOK {
			return s.nameError(outcome, errNoAttrName)
		}
		a.qe = s.pos
		s.skipSpaceHot()
		if b, ok = s.next(); !ok {
			return false
		}
		if b != '=' {
			s.ecode = errNoEq
			return false
		}
		s.skipSpaceHot()
		if b, ok = s.next(); !ok {
			return false
		}
		if b != '"' && b != '\'' {
			s.ecode = errUnquoted
			return false
		}
		if !s.scanText(b, false) {
			return false
		}
		a.val = s.out
		raw = raw[:len(raw)+1]
		raw[len(raw)-1] = a
	}
	s.raw = raw
	s.name = s.buf[ls:qe]
	return s.startRules(qs, ls, qe, empty)
}

// startRules applies the model's rules to the scanned start tag, then
// pushes it and publishes its attributes.
//
//xic:hotpath
func (s *Scanner) startRules(qs, ls, qe int, empty bool) bool {
	buf := s.buf
	for _, a := range s.raw {
		if a.ls == a.qs+len("xmlns:") && equalBytes(buf[a.qs:a.ls-1], xmlnsName) && equalBytes(a.val, xmlnsName) {
			s.ecode, s.ea, s.eb = errReservedPrefix, a.ls, a.qe
			return false
		}
	}
	if i, j, found := s.collision(); found {
		s.ecode, s.ea, s.eb = errCollision, i, j
		return false
	}
	if len(s.open) == 0 {
		if s.rootSeen {
			s.ecode, s.ea, s.eb = errMultipleRoots, ls, qe
			return false
		}
		s.rootSeen = true
	}
	n := len(s.names)
	s.names = s.names[:n+qe-qs]
	copy(s.names[n:], buf[qs:qe])
	s.open = s.open[:len(s.open)+1]
	s.open[len(s.open)-1] = len(s.names)
	attrs := s.attrs[:0]
	for _, a := range s.raw {
		if isXMLNS(buf, a) {
			continue
		}
		attrs = attrs[:len(attrs)+1]
		attrs[len(attrs)-1] = Attr{Name: buf[a.ls:a.qe], Value: a.val}
	}
	s.attrs = attrs
	s.needClose = empty
	return true
}

var xmlnsName = []byte("xmlns")

// isXMLNS reports whether a raw attribute is a namespace declaration:
// prefix xmlns, or local name xmlns under any prefix.
//
//xic:hotpath
func isXMLNS(buf []byte, a rawAttr) bool {
	return a.ls == a.qs+len("xmlns:") && equalBytes(buf[a.qs:a.ls-1], xmlnsName) ||
		equalBytes(buf[a.ls:a.qe], xmlnsName)
}

// collision finds the first pair of non-xmlns attributes sharing a local
// name — the smallest i that has a later namesake, then that namesake's
// smallest j — by comparing pairs for small tags and hashing otherwise.
//
//xic:hotpath
func (s *Scanner) collision() (first, second int, found bool) {
	buf, raw := s.buf, s.raw
	if len(raw) <= smallAttrs {
		for i := range raw {
			if isXMLNS(buf, raw[i]) {
				continue
			}
			for j := i + 1; j < len(raw); j++ {
				if !isXMLNS(buf, raw[j]) && equalBytes(buf[raw[i].ls:raw[i].qe], buf[raw[j].ls:raw[j].qe]) {
					return i, j, true
				}
			}
		}
		return 0, 0, false
	}
	size := 16 // a power of two at least twice the attribute count
	for size < 2*len(raw) {
		size *= 2
	}
	table := s.seen[:size] // a larger earlier tag may have grown seen
	clear(table)
	mask := uint32(size - 1)
	first = -1
	for j := range raw {
		if isXMLNS(buf, raw[j]) {
			continue
		}
		local := buf[raw[j].ls:raw[j].qe]
		for h := hashBytes(local) & mask; ; h = (h + 1) & mask {
			e := table[h]
			if e == 0 {
				table[h] = int32(j + 1)
				break
			}
			i := int(e - 1)
			if equalBytes(buf[raw[i].ls:raw[i].qe], local) {
				if first < 0 || i < first {
					first, second = i, j
				}
				break
			}
		}
	}
	return first, second, first >= 0
}

// hashBytes is FNV-1a.
//
//xic:hotpath
func hashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// equalBytes is bytes.Equal without the allocating-package call.
//
//xic:hotpath
func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scanEnd tokenises a framed end tag at pos, just after "</", and matches
// it against the innermost open element.
//
//xic:hotpath
func (s *Scanner) scanEnd() bool {
	qs := s.pos
	ls, outcome := s.scanName()
	if outcome != nameOK {
		return s.nameError(outcome, errNoEndName)
	}
	qe := s.pos
	s.skipSpaceHot()
	b, ok := s.next()
	if !ok {
		return false
	}
	if b != '>' {
		s.ecode, s.ea, s.eb = errEndJunk, ls, qe
		return false
	}
	if len(s.open) == 0 {
		s.ecode, s.ea, s.eb = errUnexpectedEnd, ls, qe
		return false
	}
	top := len(s.open) - 1
	if !equalBytes(s.names[s.openStart(top):s.open[top]], s.buf[qs:qe]) {
		s.ecode, s.ea, s.eb = errClosedBy, qs, qe
		return false
	}
	s.popOpen()
	s.name = s.buf[ls:qe]
	return true
}

// textSpecial marks the bytes that leave scanText's copy loop: markup and
// reference delimiters, quotes, "]]>" candidates, carriage returns, and
// bytes that need character-range validation.
var textSpecial = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf
	}
	for _, c := range []byte("<&]>\r\"'") {
		t[c] = true
	}
	return t
}()

// scanText reads character data at pos as encoding/xml's text reader
// does: quote is the delimiter of an attribute value (0 for character
// data), cdata selects a CDATA section body. The text is published in out:
// a view of the input when it needs no decoding, otherwise its decoded
// form appended to dec, where references are replaced and "\r\n" and "\r"
// become "\n". The input itself is never rewritten. pos ends past the
// text: before the '<' that ends character data, after a closing quote or
// "]]>".
//
//xic:hotpath
func (s *Scanner) scanText(quote byte, cdata bool) bool {
	buf := s.buf[:s.end]
	i := s.pos
	start := i
	dec := s.dec
	ds := len(dec)    // where this text's decoded form starts in dec
	copying := false  // the text needed decoding: its output is dec[ds:]
	brackets := 0     // consecutive ']' just read, for "]]>"
	validate := false // some byte needs a character-range check
	for {
		j := i
		for j < len(buf) && !textSpecial[buf[j]] {
			j++
		}
		if j > i {
			if copying {
				dec = appendWithin(dec, buf[i:j])
			}
			i = j
			brackets = 0
		}
		if i == len(buf) {
			if cdata {
				s.pos, s.ecode = i, errEOFCDATA
				return false
			}
			break
		}
		c := buf[i]
		switch {
		case c == '>' && quote == 0 && brackets >= 2:
			i++
			if !cdata {
				s.pos, s.ecode = i, errCDATAEnd
				return false
			}
			s.pos = i
			if copying {
				s.dec = dec[:len(dec)-2] // drop the "]]" already copied
				return s.finishText(s.dec[ds:], validate)
			}
			return s.finishText(buf[start:i-len("]]>")], validate)
		case c == '<' && !cdata:
			if quote != 0 {
				s.pos, s.ecode = i+1, errLtInQuote
				return false
			}
			s.pos = i
			return s.publishText(buf[start:i], dec, ds, copying, validate)
		case c == quote && quote != 0:
			s.pos = i + 1
			return s.publishText(buf[start:i], dec, ds, copying, validate)
		case c == '&' && !cdata:
			if !copying {
				copying = true
				dec = appendWithin(dec, buf[start:i])
			}
			n := len(dec)
			var ok bool
			if i, dec, ok = s.reference(buf, i, dec); !ok {
				return false
			}
			if dec[n] < 0x20 || dec[n] >= utf8.RuneSelf {
				validate = true
			}
			brackets = 0
		case c == '\r':
			if !copying {
				copying = true
				dec = appendWithin(dec, buf[start:i])
			}
			dec = appendWithin(dec, newline)
			i++
			if i < len(buf) && buf[i] == '\n' {
				i++
			}
			brackets = 0
		default:
			if c == ']' {
				brackets++
			} else {
				brackets = 0
				if c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf {
					validate = true
				}
			}
			if copying {
				dec = appendWithin(dec, buf[i:i+1])
			}
			i++
		}
	}
	s.pos = i
	return s.publishText(buf[start:i], dec, ds, copying, validate)
}

// publishText finishes a text that ended without "]]>": raw is its input
// bytes, used as-is unless it needed decoding into dec[ds:].
//
//xic:hotpath
func (s *Scanner) publishText(raw, dec []byte, ds int, copying, validate bool) bool {
	if copying {
		s.dec = dec
		return s.finishText(dec[ds:], validate)
	}
	return s.finishText(raw, validate)
}

// appendWithin appends b to dst inside dst's capacity, which the cold
// layer sizes for the whole token (decoding never grows text).
//
//xic:hotpath
func appendWithin(dst, b []byte) []byte {
	n := len(dst)
	dst = dst[:n+len(b)]
	copy(dst[n:], b)
	return dst
}

// finishText validates the text when needed and publishes it in out. Like
// encoding/xml it checks only after the whole run is read, so an error is
// reported at the end of the run.
//
//xic:hotpath
func (s *Scanner) finishText(text []byte, validate bool) bool {
	s.out = text
	if !validate {
		return true
	}
	for b := text; len(b) > 0; {
		r, n := utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 {
			s.ecode = errUTF8
			return false
		}
		if !inCharRange(r) {
			s.ecode, s.erune = errChar, r
			return false
		}
		b = b[n:]
	}
	return true
}

// reference decodes the entity or character reference at buf[amp],
// appending it to dec, and returns the position after it. Only the five
// predefined entities are known; a character reference must name a rune
// at most unicode.MaxRune (surrogates decode to U+FFFD, as string(rune)
// does). Every reference is at least as long as its UTF-8 encoding, so
// the append stays within the capacity reserved for the token.
//
//xic:hotpath
func (s *Scanner) reference(buf []byte, amp int, dec []byte) (int, []byte, bool) {
	i := amp + 1
	if i == len(buf) {
		s.pos, s.ecode = i, errEOF
		return i, dec, false
	}
	if buf[i] == '#' {
		i++
		if i == len(buf) {
			s.pos, s.ecode = i, errEOF
			return i, dec, false
		}
		base := rune(10)
		if buf[i] == 'x' {
			base = 16
			i++
		}
		ds := i
		var v rune
		over := false
		for ; i < len(buf); i++ {
			d := digitVal(buf[i], base)
			if d < 0 {
				break
			}
			if v = v*base + d; v > unicode.MaxRune {
				over = true
				v = unicode.MaxRune + 1
			}
		}
		if i == len(buf) {
			s.pos, s.ecode = i, errEOF
			return i, dec, false
		}
		if buf[i] != ';' {
			s.pos, s.ecode, s.ea, s.ec = i, errEntity, amp, 1
			return i, dec, false
		}
		i++
		if i-1 == ds || over {
			s.pos, s.ecode, s.ea, s.ec = i, errEntity, amp, 0
			return i, dec, false
		}
		n := len(dec)
		return i, dec[:n+utf8.EncodeRune(dec[n:cap(dec)], v)], true
	}
	ns := i
	for i < len(buf) && (buf[i] >= utf8.RuneSelf || isNameByte(buf[i])) {
		i++
	}
	if i == len(buf) {
		s.pos, s.ecode = i, errEOF
		return i, dec, false
	}
	if buf[i] != ';' {
		s.pos, s.ecode, s.ea, s.ec = i, errEntity, amp, 1
		return i, dec, false
	}
	c := predefined(buf[ns:i])
	i++
	if c == 0 {
		s.pos, s.ecode, s.ea, s.ec = i, errEntity, amp, 0
		return i, dec, false
	}
	n := len(dec)
	dec = dec[:n+1]
	dec[n] = c
	return i, dec, true
}

// digitVal returns the value of c as a digit in base 10 or 16, or -1.
//
//xic:hotpath
func digitVal(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// predefined returns the character a predefined entity name stands for,
// or 0.
//
//xic:hotpath
func predefined(name []byte) byte {
	switch len(name) {
	case 2:
		if name[1] == 't' {
			switch name[0] {
			case 'l':
				return '<'
			case 'g':
				return '>'
			}
		}
	case 3:
		if name[0] == 'a' && name[1] == 'm' && name[2] == 'p' {
			return '&'
		}
	case 4:
		if name[0] == 'a' && name[1] == 'p' && name[2] == 'o' && name[3] == 's' {
			return '\''
		}
		if name[0] == 'q' && name[1] == 'u' && name[2] == 'o' && name[3] == 't' {
			return '"'
		}
	}
	return 0
}

// inCharRange reports whether r is an XML 1.0 Char.
//
//xic:hotpath
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// isSpace reports whether c is XML whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\r' || c == '\n' || c == '\t'
}

// blank reports whether decoded text is all whitespace in the sense of
// unicode.IsSpace — the test the tree model applies to drop formatting
// runs between elements.
//
//xic:hotpath
func blank(b []byte) bool {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c != ' ' && (c < '\t' || c > '\r') {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += n
	}
	return true
}
