package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// scanResult is what a tokeniser makes of a document: the event sequence
// in the tree model's terms — start tags with their non-xmlns attributes,
// end tags, and coalesced non-whitespace text — and, for a rejected
// document, the error position.
type scanResult struct {
	events      []string
	failed      bool
	line        int
	off         int64
	unsupported bool // rejected as a deliberate divergence
	reserved    bool // oracle only: the failing-or-later start tag binds a prefix to "xmlns"
	reservedOff int64
}

func (r scanResult) String() string {
	if !r.failed {
		return fmt.Sprintf("ok %q", r.events)
	}
	return fmt.Sprintf("error at line %d offset %d (unsupported=%v) after %q", r.line, r.off, r.unsupported, r.events)
}

// oracleScan runs encoding/xml's strict Decoder with the tree model's
// rules applied on top, exactly as the encoding/xml-based parser did: one
// root, no text outside it, attribute local names unique after skipping
// xmlns declarations.
func oracleScan(doc []byte) scanResult {
	var res scanResult
	dec := xml.NewDecoder(bytes.NewReader(doc))
	lineAt := func(off int64) int { return 1 + bytes.Count(doc[:off], []byte{'\n'}) }
	fail := func(off int64) scanResult {
		res.failed, res.off, res.line = true, off, lineAt(off)
		return res
	}
	depth, roots := 0, 0
	var text []byte
	flush := func() {
		if len(text) > 0 {
			res.events = append(res.events, "T "+string(text))
			text = text[:0]
		}
	}
	for {
		tok, err := dec.Token()
		off := dec.InputOffset()
		if err == io.EOF {
			if roots == 0 {
				return fail(off)
			}
			return res
		}
		if err != nil {
			var se *xml.SyntaxError
			if errors.As(err, &se) && se.Line != lineAt(off) {
				panic(fmt.Sprintf("encoding/xml line %d disagrees with offset %d", se.Line, off))
			}
			return fail(off)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flush()
			ev := "S " + t.Name.Local
			var locals []string
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" && a.Value == "xmlns" && !res.reserved {
					res.reserved, res.reservedOff = true, off
				}
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				for _, l := range locals {
					if l == a.Name.Local {
						return fail(off)
					}
				}
				locals = append(locals, a.Name.Local)
				ev += fmt.Sprintf(" %s=%q", a.Name.Local, a.Value)
			}
			if depth == 0 {
				if roots++; roots > 1 {
					return fail(off)
				}
			}
			depth++
			res.events = append(res.events, ev)
		case xml.EndElement:
			flush()
			depth--
			res.events = append(res.events, "E "+t.Name.Local)
		case xml.CharData:
			if strings.TrimSpace(string(t)) == "" {
				continue
			}
			if depth == 0 {
				return fail(off)
			}
			text = append(text, t...)
		}
	}
}

// scannerScan runs the Scanner over doc, delivered by r.
func scannerScan(r io.Reader) scanResult {
	var res scanResult
	s := NewScanner(r)
	var text []byte
	flush := func() {
		if len(text) > 0 {
			res.events = append(res.events, "T "+string(text))
			text = text[:0]
		}
	}
	for {
		kind, err := s.Next()
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				panic(fmt.Sprintf("scanner error %v is not a *ParseError", err))
			}
			res.failed, res.line, res.off = true, pe.Line, pe.Offset
			res.unsupported = errors.Is(err, ErrUnsupported)
			return res
		}
		switch kind {
		case KindEOF:
			return res
		case KindStart:
			flush()
			ev := "S " + string(s.Name())
			for _, a := range s.Attrs() {
				ev += fmt.Sprintf(" %s=%q", a.Name, a.Value)
			}
			res.events = append(res.events, ev)
		case KindEnd:
			flush()
			res.events = append(res.events, "E "+string(s.Name()))
		case KindText:
			text = append(text, s.Text()...)
		}
	}
}

// checkScanAgreement requires the scanner to match the encoding/xml oracle
// on doc, whole and delivered one byte at a time (every token then
// straddles a refill). The one deliberate divergence — a prefix bound to
// the name "xmlns" — must be a rejection at that binding, where the oracle
// accepted or had not yet failed.
func checkScanAgreement(t *testing.T, doc []byte) {
	t.Helper()
	want := oracleScan(doc)
	for _, r := range []io.Reader{bytes.NewReader(doc), iotest.OneByteReader(bytes.NewReader(doc))} {
		got := scannerScan(r)
		if got.unsupported {
			if !want.reserved || want.reservedOff != got.off || (want.failed && want.off < got.off) {
				t.Fatalf("unsupported rejection without a reserved binding there:\n doc %q\n got  %v\n want %v", doc, got, want)
			}
			if !slicesHavePrefix(want.events, got.events) {
				t.Fatalf("events before the unsupported rejection differ:\n doc %q\n got  %v\n want %v", doc, got, want)
			}
			continue
		}
		if want.reserved && (!want.failed || want.reservedOff < want.off) {
			t.Fatalf("reserved xmlns binding not rejected:\n doc %q\n got  %v\n want %v", doc, got, want)
		}
		if got.failed != want.failed || got.line != want.line || got.off != want.off || fmt.Sprint(got.events) != fmt.Sprint(want.events) {
			t.Fatalf("scanner disagrees with encoding/xml:\n doc %q\n got  %v\n want %v", doc, got, want)
		}
	}
}

func slicesHavePrefix(s, prefix []string) bool {
	return len(prefix) <= len(s) && fmt.Sprint(s[:len(prefix)]) == fmt.Sprint(prefix)
}

// scanSeeds covers the constructs the scanner must agree on.
var scanSeeds = []string{
	`<a/>`,
	`<a x="1" y='2'>text</a>`,
	"<a>\n  <b/>\n</a>\n",
	`<a><![CDATA[<not> & markup]]></a>`,
	`<a><![CDATA[]]>x<![CDATA[ ]]>y</a>`,
	`<a>x<!-- c -->y<?pi data?>z</a>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="latin1"?><a/>`,
	`<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!-- c --> <!ATTLIST a x CDATA "<>">]><a>t</a>`,
	`<a>&#32;</a>`,
	`<a> &#32; x</a>`,
	`<a v="&lt;&gt;&amp;&apos;&quot;&#x41;&#66;"/>`,
	"<a>\r\nx\ry\r\n</a>",
	"<a v=\"1\r\n2\"/>",
	`<p:a xmlns:p="u" p:x="1" y="2"></p:a>`,
	`<a xmlns="u" xmlns:q="v"/>`,
	`<a xmlns:p="xmlns" p:id="1"/>`,
	`<a a:id="1" b:id="2"/>`,
	`<a id="1" id="2"/>`,
	`<a/><b/>`,
	`x<a/>`,
	`<a/>x`,
	`<a/>  `,
	"<a>\xff</a>",
	"<a v=\"\xc3\"/>",
	`<a></b>`,
	`<p:a></q:a>`,
	`</a>`,
	`<a>`,
	``,
	`   `,
	`<!-- only -->`,
	`<a>]]></a>`,
	`<a>&bogus;</a>`,
	`<a>&amp</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#0;</a>`,
	`<a>&#1114112;</a>`,
	`<a b:c:d="1"/>`,
	`<1a/>`,
	"<aé̀/>",
	`<a x="1"y="2"/>`,
	`<a x = "1" / >`,
	`<a x=1/>`,
	`<a x="<"/>`,
	`<a>` + strings.Repeat("long text ", 1000) + `</a>`,
	`<a v="` + strings.Repeat("v", 5000) + `"/>`,
	`<a ` + strings.Repeat(`x`, 5000) + `="1"/>`,
}

// FuzzScanMatchesEncodingXML requires the scanner to agree with
// encoding/xml's strict Decoder — accept/reject verdict, event sequence,
// and error line and offset — on arbitrary bytes.
func FuzzScanMatchesEncodingXML(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkScanAgreement(t, doc)
	})
}

// TestScanAgreementSeeds runs the fuzzer's seeds with the many-attribute
// and chunk-straddling variants the corpus file format makes awkward.
func TestScanAgreementSeeds(t *testing.T) {
	docs := append([]string(nil), scanSeeds...)
	var many strings.Builder
	many.WriteString("<a")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&many, ` p%d:k%d="%d"`, i%3, i, i)
	}
	docs = append(docs, many.String()+"/>", many.String()+` q:k17="dup"/>`)
	for _, doc := range docs {
		checkScanAgreement(t, []byte(doc))
	}
}

// TestScanReservedPrefixRejected pins the scanner's one deliberate
// divergence from encoding/xml: binding a prefix to the name "xmlns"
// (which would make that prefix's attributes look like namespace
// declarations) is rejected with an error matching ErrUnsupported.
func TestScanReservedPrefixRejected(t *testing.T) {
	_, err := ParseString(`<a xmlns:p="xmlns" p:id="1"/>`)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 1 || pe.Offset != 29 {
		t.Fatalf("err = %#v, want a *ParseError at line 1 offset 29", err)
	}
}

// TestScanPositions pins Line and Offset per token against
// encoding/xml's InputOffset on a multi-line document.
func TestScanPositions(t *testing.T) {
	doc := "<a>\n  <b x=\"1\"/>\n  text\n</a>\n"
	s := NewScanner(strings.NewReader(doc))
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		kind, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if kind == KindEOF {
			break
		}
		for {
			tok, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			if cd, ok := tok.(xml.CharData); ok && strings.TrimSpace(string(cd)) == "" {
				continue
			}
			break
		}
		off := dec.InputOffset()
		if s.Offset() != off {
			t.Errorf("token %v: offset %d, want %d", kind, s.Offset(), off)
		}
		if want := 1 + strings.Count(doc[:off], "\n"); s.Line() != want {
			t.Errorf("token %v: line %d, want %d", kind, s.Line(), want)
		}
	}
}

// TestNameTablesMatchEncodingXML checks the name-character tables against
// encoding/xml over every non-ASCII rune of the Basic Multilingual Plane
// (the tables have no entries beyond it) and a sample above it.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(doc string) bool {
		dec := xml.NewDecoder(strings.NewReader(doc))
		for {
			if _, err := dec.Token(); err != nil {
				return err == io.EOF
			}
		}
	}
	check := func(r rune) {
		if r >= 0xD800 && r <= 0xDFFF {
			return
		}
		if got, want := validName([]byte(string(r))), accepts("<"+string(r)+"/>"); got != want {
			t.Errorf("name start %U: table %v, encoding/xml %v", r, got, want)
		}
		if got, want := validName([]byte("a"+string(r))), accepts("<a"+string(r)+"/>"); got != want {
			t.Errorf("name char %U: table %v, encoding/xml %v", r, got, want)
		}
	}
	for r := rune(utf8.RuneSelf); r <= 0xFFFF; r++ {
		check(r)
	}
	for r := rune(0x10000); r <= utf8.MaxRune; r += 997 {
		check(r)
	}
}

// TestScanReaderError checks that a failing reader surfaces as its own
// error, wrapped, and not as a positioned syntax error.
func TestScanReaderError(t *testing.T) {
	boom := errors.New("boom")
	for _, prefix := range []string{"", "<a>", "<a x=\"1", "<a><!-- c", "<a>text"} {
		r := io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom))
		_, err := Parse(r)
		var pe *ParseError
		if !errors.Is(err, boom) || errors.As(err, &pe) {
			t.Errorf("prefix %q: err = %v, want the reader's error unpositioned", prefix, err)
		}
	}
}
