package doccheck_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"xic"
	"xic/internal/xmltree"
)

// A family generates documents of one adversarial shape at a given size,
// with the specification they are checked against.
type family struct {
	name   string
	dtd    string
	cons   string
	n      int // the smaller size; the suite also runs 4n
	gen    func(n int) string
	valid  bool // whether the documents satisfy the specification
	dtdFor func(n int) string
}

// chainDoc renders <r><a><a>…</a></a></r> with n a elements, each with the
// given attribute text.
func chainDoc(n int, attrs string) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		b.WriteString("<a" + attrs + ">")
	}
	b.WriteString(strings.Repeat("</a>", n))
	b.WriteString("</r>")
	return b.String()
}

var families = []family{
	{
		name:  "deep-chain",
		dtd:   "<!ELEMENT r (a)>\n<!ELEMENT a (a?)>\n<!ATTLIST a id CDATA #REQUIRED>",
		cons:  "a.id -> a",
		n:     2000,
		gen:   func(n int) string { return chainDocIDs(n) },
		valid: true,
	},
	{
		name:  "wide-fanout",
		dtd:   "<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>",
		n:     5000,
		gen:   func(n int) string { return "<r>" + strings.Repeat("<a/>", n) + "</r>" },
		valid: true,
	},
	{
		name: "many-attributes",
		dtdFor: func(n int) string {
			var b strings.Builder
			b.WriteString("<!ELEMENT r (e*)>\n<!ELEMENT e EMPTY>\n<!ATTLIST e")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, " a%d CDATA #REQUIRED", i)
			}
			b.WriteString(">")
			return b.String()
		},
		n: 200,
		gen: func(n int) string {
			var b strings.Builder
			b.WriteString("<r>")
			for e := 0; e < 4; e++ {
				b.WriteString("<e")
				for i := 0; i < n; i++ {
					fmt.Fprintf(&b, ` a%d="v%d"`, i, i)
				}
				b.WriteString("/>")
			}
			b.WriteString("</r>")
			return b.String()
		},
		valid: true,
	},
	{
		name: "long-text",
		dtd:  "<!ELEMENT r (#PCDATA)>",
		n:    200_000,
		gen: func(n int) string {
			// Entities and CRLF make the run need decoding; its length
			// makes it straddle many scanner refills.
			return "<r>" + strings.Repeat("text &amp; \r\nmore ", n/20) + "</r>"
		},
		valid: true,
	},
	{
		name:  "distinct-keys",
		dtd:   "<!ELEMENT r (a*, b*)>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n<!ATTLIST a id CDATA #REQUIRED>\n<!ATTLIST b to CDATA #REQUIRED>",
		cons:  "a.id -> a\nb.to => a.id",
		n:     500, // 4n keys' indexes stay cache-resident, so the ratio measures work, not misses
		gen:   keyedDoc,
		valid: true,
	},
	{
		// One oversized element first — n attributes and n distinct
		// undeclared children — then n small ones: per-element scratch
		// sized by the first must not be cleared at its size for the rest.
		name:  "oversized-then-many",
		dtd:   "<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>\n<!ATTLIST a k CDATA #REQUIRED>",
		n:     2000,
		gen:   oversizedThenMany,
		valid: false,
	},
	{
		name:  "every-element-violates",
		dtd:   "<!ELEMENT r (a)>\n<!ELEMENT a (a?)>\n<!ATTLIST a id CDATA #REQUIRED>",
		n:     2000,
		gen:   func(n int) string { return chainDoc(n, ` junk="1"`) },
		valid: false,
	},
}

func chainDocIDs(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<a id="%d">`, i)
	}
	b.WriteString(strings.Repeat("</a>", n))
	b.WriteString("</r>")
	return b.String()
}

func oversizedThenMany(n int) string {
	var b strings.Builder
	b.WriteString(`<r><a k="0"`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ` u%d="1"`, i)
	}
	b.WriteString(">")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<x%d/>", i)
	}
	b.WriteString("</a>")
	small := `<a k="1" b1="" b2="" b3="" b4="" b5="" b6="" b7="" b8=""/>`
	b.WriteString(strings.Repeat(small, n))
	b.WriteString("</r>")
	return b.String()
}

func keyedDoc(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<a id="k%d"/>`, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<b to="k%d"/>`, (i*7)%n)
	}
	b.WriteString("</r>")
	return b.String()
}

// allocsOf returns the heap allocations of one run of f.
func allocsOf(t *testing.T, f func() error) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// timeRatio runs small and large k times each, alternately, and returns
// the ratio of their best wall times. Alternating makes load from other
// processes hit both sizes alike. Automatic GC is off while timing and the
// heap is collected before every run: the times measure the work itself,
// and allocsOf polices what the collector would add.
func timeRatio(t *testing.T, k int, small, large func() error) (ratio float64, bestSmall, bestLarge time.Duration) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bestSmall, bestLarge = time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < k; round++ {
		bestSmall = min(bestSmall, timed(t, small))
		bestLarge = min(bestLarge, timed(t, large))
	}
	return float64(bestLarge) / float64(bestSmall), bestSmall, bestLarge
}

// timed runs f once from a freshly collected heap and returns its wall
// time.
func timed(t *testing.T, f func() error) time.Duration {
	t.Helper()
	runtime.GC()
	start := time.Now()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestLinearCost is the complexity regression suite: every adversarial
// document shape an untrusted client can send — deep, wide,
// attribute-heavy, text-heavy, key-heavy, oversized-then-small, or
// violating at every element — must cost linear time and allocations
// through stream validation, tree parsing and session ingest. Each family
// runs at sizes n and 4n, small enough to stay cache-resident; the 4x
// input may cost at most 4.5x the allocations and 6x the best-of-k wall
// time (headroom for a shared machine; the time is measured up to five
// times before a ratio over 6 counts).
func TestLinearCost(t *testing.T) {
	ctx := context.Background()
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			type path struct {
				name string
				run  func(spec *xic.Spec, doc []byte) error
			}
			paths := []path{
				{"ValidateStream", func(spec *xic.Spec, doc []byte) error {
					rep, err := spec.ValidateStream(ctx, bytes.NewReader(doc))
					if err == nil && rep.OK() != fam.valid {
						err = fmt.Errorf("verdict %v, want %v", rep.OK(), fam.valid)
					}
					return err
				}},
				{"Parse", func(_ *xic.Spec, doc []byte) error {
					_, err := xmltree.Parse(bytes.NewReader(doc))
					return err
				}},
				{"OpenSession", func(spec *xic.Spec, doc []byte) error {
					_, err := spec.OpenSession(ctx, bytes.NewReader(doc))
					var ide *xic.InvalidDocumentError
					if !fam.valid && errors.As(err, &ide) {
						return nil
					}
					return err
				}},
			}
			specs := make(map[int]*xic.Spec)
			docs := make(map[int][]byte)
			for _, n := range []int{fam.n, 4 * fam.n} {
				d := fam.dtd
				if fam.dtdFor != nil {
					d = fam.dtdFor(n)
				}
				spec, err := xic.CompileStrings(d, fam.cons)
				if err != nil {
					t.Fatal(err)
				}
				specs[n], docs[n] = spec, []byte(fam.gen(n))
			}
			for _, p := range paths {
				runSmall := func() error { return p.run(specs[fam.n], docs[fam.n]) }
				runLarge := func() error { return p.run(specs[4*fam.n], docs[4*fam.n]) }
				smallAllocs, largeAllocs := allocsOf(t, runSmall), allocsOf(t, runLarge) // also warms caches
				allocRatio := float64(largeAllocs) / float64(max(smallAllocs, 1))
				if allocRatio > 4.5 {
					t.Errorf("%s: allocations grew %.2fx for 4x input (%d -> %d)", p.name, allocRatio, smallAllocs, largeAllocs)
				}
				if raceEnabled {
					continue // allocation counts hold; times do not
				}
				// A superlinear path exceeds the bound on every attempt;
				// a burst of load from other processes does not.
				var ratio float64
				var small, large time.Duration
				for attempt := 0; attempt < 5; attempt++ {
					if ratio, small, large = timeRatio(t, 15, runSmall, runLarge); ratio <= 6 {
						break
					}
				}
				t.Logf("%s: n=%d %v %d allocs; 4n %v %d allocs; ratios time %.2f allocs %.2f",
					p.name, fam.n, small, smallAllocs, large, largeAllocs, ratio, allocRatio)
				if ratio > 6 {
					t.Errorf("%s: best time grew %.2fx for 4x input (%v -> %v)", p.name, ratio, small, large)
				}
			}
		})
	}
}

// TestViolatingChainIsFast pins the depth-1000 chain whose every element
// violates — the shape whose path-per-violation bookkeeping once cost
// O(elements × depth) — well under the 5ms budget.
func TestViolatingChainIsFast(t *testing.T) {
	spec, err := xic.CompileStrings("<!ELEMENT r (a)>\n<!ELEMENT a (a?)>\n<!ATTLIST a id CDATA #REQUIRED>", "")
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(chainDoc(1000, ` junk="1"`))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		best = min(best, timed(t, func() error {
			rep, err := spec.ValidateStream(context.Background(), bytes.NewReader(doc))
			if err == nil && (!rep.Truncated || rep.Dropped != 2*1000-len(rep.Violations)) {
				err = fmt.Errorf("report kept %d, dropped %d, truncated %v; want 2000 violations in all",
					len(rep.Violations), rep.Dropped, rep.Truncated)
			}
			return err
		}))
	}
	if best > 5*time.Millisecond && !raceEnabled {
		t.Errorf("depth-1000 violating chain took %v, want < 5ms", best)
	}
}
