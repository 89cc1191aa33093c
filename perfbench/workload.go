package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"xic"
	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/randgen"
	"xic/internal/solvebench"
)

// specDef is one specification a workload registers with xicd, together
// with everything the oracle knows about it.
type specDef struct {
	name  string
	dtd   string // DTD source sent to xicd
	cons  string // constraint source sent to xicd
	id    string // the content-addressed id xicd must answer with
	class string // xic.ClassOf of the constraints

	spec  *xic.Spec // compiled in-process for the oracle
	sigma []xic.Constraint

	// undecidable specs must get 422 from /consistent; for the others
	// consistent is the verdict of the simple solver path.
	undecidable bool
	consistent  bool
	decided     bool
}

// query is one /implies question and its expected verdict.
type query struct {
	spec    int
	text    string
	phi     xic.Constraint
	implied bool
}

// docDef is one document sent to /validate or to a session.
type docDef struct {
	spec     int
	kind     string // how the generator built it, e.g. "valid", "dup-key", "deep-chain"
	body     []byte
	valid    bool // the generator's known answer, confirmed by the tree path
	elements int
	many     bool // more violations than the report keeps (Truncated)
	// manyUnknown: the generator cannot tell how many keys repeat, so
	// the report may or may not be truncated.
	manyUnknown bool
	// lib documents: their shape, which session edits are built against.
	groups, refs int
}

// request is one step of a client's fixed request sequence.
type request struct {
	op      string // endpoint label, as in the report
	spec    int
	cold    *specDef // compile: a spec xicd has never seen
	witness bool     // consistent: ask for a witness
	query   int      // implies
	doc     int      // validate, open, open_invalid
	ops     []xic.EditOp
	// Edit batches: the expected outcome, from how each op was built.
	applied  int
	rejected int  // index of the rejected op, -1 when all apply
	elements int  // edits, document: element count after the request
	final    bool // document: the cycle's last read, restreamed by the oracle
}

// workload is everything a run needs: the specs registered at set-up, the
// request sequences of the clients and the oracle's expected answers.
type workload struct {
	name    string
	specs   []*specDef
	setup   []int // specs whose consistency set-up checks once
	queries []query
	docs    []docDef
	seqs    [clients][]request
}

// clients is the number of closed-loop clients, one connection each.
const clients = 2

// sizes scales a workload: full is what the benchmark measures, tiny is the
// smoke test's.
type sizes struct {
	seqLen       int   // requests per client sequence (decide, validate)
	randomSpecs  int   // seeded random specs in the decide pool
	docScale     int   // elements per thousand in the validate document plan
	chainDepth   int   // depth of the all-violating chain
	sessionSizes []int // session document sizes
	cycles       int   // session cycles per client sequence
	batches      int   // edit batches per session cycle
}

var fullSizes = sizes{
	seqLen:       4000,
	randomSpecs:  4,
	docScale:     1000,
	chainDepth:   1000,
	sessionSizes: []int{10000, 15000, 20000, 25000, 30000},
	cycles:       40,
	batches:      16,
}

var tinySizes = sizes{
	seqLen:       60,
	randomSpecs:  2,
	docScale:     20,
	chainDepth:   100,
	sessionSizes: []int{400, 800},
	cycles:       3,
	batches:      6,
}

// oracleOpts is the simpler solver path every expected verdict comes from:
// no presolve, exact simplex only, no witness.
var oracleOpts = []xic.SolveOption{xic.WithoutPresolve(), xic.WithoutFastTableau(), xic.WithSkipWitness()}

// oracleNodes bounds the oracle's search on the fixed specs; drawNodes
// bounds it on seeded random specs and queries, which are dropped when the
// simple path cannot settle them within it. Both depend only on the seed,
// never on timing.
const (
	oracleNodes = 1600
	drawNodes   = 100
	// maxVars drops random specs whose cardinality encoding is larger:
	// the simple path's exact simplex slows steeply with tableau size.
	maxVars = 45
)

// dtdSource renders a DTD built in code, naming its root explicitly.
func dtdSource(d *dtd.DTD) string {
	return "<!DOCTYPE " + d.Root + ">\n" + d.String()
}

// newSpec compiles a spec in-process and fills in its id and class.
func newSpec(name, dtdSrc, consSrc string) (*specDef, error) {
	spec, err := xic.CompileStrings(dtdSrc, consSrc)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", name, err)
	}
	return &specDef{
		name:  name,
		dtd:   dtdSrc,
		cons:  consSrc,
		id:    xic.Fingerprint(dtdSrc, consSrc),
		class: spec.Class().String(),
		spec:  spec,
		sigma: spec.Constraints(),
	}, nil
}

// decideVerdict fills in the oracle's consistency verdict, once. The
// simple path is slow on some specs, so it runs under a node bound; a spec
// it cannot settle within the bound is an error.
func (s *specDef) decideVerdict(ctx context.Context, nodes int) error {
	if s.decided {
		return nil
	}
	switch s.spec.Class() {
	case constraint.ClassKFK, constraint.ClassOther:
		s.undecidable = true
	default:
		res, err := s.spec.ConsistentOpts(ctx, append(oracleOpts, xic.WithMaxNodes(nodes))...)
		if err != nil {
			return fmt.Errorf("spec %s: oracle: %w", s.name, err)
		}
		s.consistent = res.Consistent
	}
	s.decided = true
	return nil
}

// parallel runs f(0) … f(n-1) on two goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// verdicts settles the consistency verdicts of the given specs in parallel.
func verdicts(ctx context.Context, specs []*specDef, nodes int) []error {
	errs := make([]error, len(specs))
	parallel(len(specs), func(i int) { errs[i] = specs[i].decideVerdict(ctx, nodes) })
	return errs
}

// Indexes of the fixtures in the catalogue, which starts every workload's
// spec list.
const (
	teachersSpec = iota
	registrarSpec
	schoolSpec
)

// catalogue is registered and checked once by every workload's set-up: the
// three specs/ fixtures plus one small spec over the teachers DTD for each
// paper class the fixtures miss, so every class is decided once per run.
func catalogue(root string) ([]*specDef, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, "specs", name))
		return string(b), err
	}
	var out []*specDef
	teachersDTD, err := read("teachers.dtd")
	if err != nil {
		return nil, err
	}
	for _, f := range []string{"teachers", "registrar", "school"} {
		d, err := read(f + ".dtd")
		if err != nil {
			return nil, err
		}
		c, err := read(f + ".xic")
		if err != nil {
			return nil, err
		}
		s, err := newSpec(f, d, c)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	probes := []struct{ name, cons string }{
		{"teachers-kic", "teacher.name -> teacher\nsubject.taught_by <= teacher.name"},
		{"teachers-knegic", "teacher.name -> teacher\nsubject.taught_by <= teacher.name\nnot subject.taught_by -> subject"},
		{"teachers-full", "teacher.name -> teacher\nnot subject.taught_by <= teacher.name"},
	}
	for _, p := range probes {
		s, err := newSpec(p.name, teachersDTD, p.cons)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// build makes the named workload's inputs from the seed.
func build(ctx context.Context, name, root string, seed int64, sz sizes) (*workload, error) {
	cat, err := catalogue(root)
	if err != nil {
		return nil, err
	}
	w := &workload{name: name, specs: cat}
	for i := range cat {
		w.setup = append(w.setup, i)
	}
	for _, err := range verdicts(ctx, cat, oracleNodes) {
		if err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "decide":
		err = w.buildDecide(ctx, rng, sz)
	case "validate":
		err = w.buildValidate(rng, sz)
	case "session":
		err = w.buildSession(rng, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want decide, validate or session)", name)
	}
	if err != nil {
		return nil, err
	}
	var setup []*specDef
	for _, i := range w.setup {
		setup = append(setup, w.specs[i])
	}
	for _, err := range verdicts(ctx, setup, oracleNodes) {
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// addSpec appends a spec and returns its index.
func (w *workload) addSpec(s *specDef) int {
	w.specs = append(w.specs, s)
	return len(w.specs) - 1
}

// ---- decide ---------------------------------------------------------------

// encodingVars is the variable count of the spec's cardinality encoding.
func encodingVars(s *specDef) int {
	enc, err := cardinality.EncodeDTD(dtd.Simplify(s.spec.DTD()))
	if err != nil {
		return 0
	}
	if _, err := enc.AddFull(s.sigma); err != nil {
		return 0
	}
	return enc.Sys.VarCount()
}

// randomDTD draws seeded random DTDs until one is an XML DTD: text only
// as a whole (#PCDATA) content model. xic's model also allows text inside
// element sequences, as in (#PCDATA, #PCDATA), but no XML document can
// carry such a tree: adjacent text children merge when parsed.
func randomDTD(rng *rand.Rand, spec randgen.DTDSpec) *dtd.DTD {
	for {
		d := randgen.RandDTD(rng, spec)
		ok := true
		for _, t := range d.Types() {
			c := d.Element(t).Content
			if _, text := c.(dtd.Text); !text && hasText(c) {
				ok = false
				break
			}
		}
		if ok {
			return d
		}
	}
}

func hasText(r dtd.Regex) bool {
	switch x := r.(type) {
	case dtd.Text:
		return true
	case dtd.Seq:
		for _, it := range x.Items {
			if hasText(it) {
				return true
			}
		}
	case dtd.Alt:
		for _, it := range x.Items {
			if hasText(it) {
				return true
			}
		}
	case dtd.Star:
		return hasText(x.Inner)
	case dtd.Plus:
		return hasText(x.Inner)
	case dtd.Opt:
		return hasText(x.Inner)
	}
	return false
}

// randomDecideSpec draws one seeded random spec with unary constraints.
func randomDecideSpec(rng *rand.Rand, name string) (*specDef, error) {
	d := randomDTD(rng, randgen.DTDSpec{Types: 4, Depth: 2, AttrsPer: 1})
	set := randgen.RandUnarySet(rng, d, randgen.SetSpec{
		Keys: 2, ForeignKeys: 1, Inclusions: 1, NegKeys: rng.Intn(2),
	})
	return newSpec(name, dtdSource(d), constraint.FormatSet(set))
}

func (w *workload) buildDecide(ctx context.Context, rng *rand.Rand, sz sizes) error {
	cat := len(w.specs)
	teachers := w.specs[teachersSpec]
	keys, err := newSpec("teachers-keys", teachers.dtd, "teacher.name -> teacher\nsubject.taught_by -> subject")
	if err != nil {
		return err
	}
	w.addSpec(keys)
	corpus, err := solvebench.Corpus(false)
	if err != nil {
		return err
	}
	for _, c := range corpus {
		s, err := newSpec(c.Name, dtdSource(c.Checker.DTD()), constraint.FormatSet(c.Set))
		if err != nil {
			return err
		}
		w.addSpec(s)
	}
	// Seeded random specs: a fixed number of draws, the first ones that
	// are small enough and that the simple path settles are kept.
	var draws []*specDef
	for k := 0; k < 4*sz.randomSpecs; k++ {
		s, err := randomDecideSpec(rng, fmt.Sprintf("random-%d", k))
		if err != nil || encodingVars(s) > maxVars {
			continue // a draw the compiler rejects, or too large
		}
		draws = append(draws, s)
	}
	fixed := w.specs[cat:]
	for _, err := range verdicts(ctx, fixed, oracleNodes) {
		if err != nil {
			return err
		}
	}
	errs := verdicts(ctx, draws, drawNodes)
	for k, s := range draws {
		if errs[k] == nil && len(w.specs) < cat+len(fixed)+sz.randomSpecs {
			w.addSpec(s)
		}
	}
	var decidable []int
	for i, s := range w.specs {
		if !s.undecidable {
			decidable = append(decidable, i)
		}
	}
	// Implication queries: a few drawn per decidable spec, over its
	// attributes; those the simple path settles are kept.
	// Registrar's keys-only counterexamples take seconds to build, so it
	// gets no queries.
	var cands []query
	for _, i := range decidable {
		s := w.specs[i]
		if i == registrarSpec {
			continue
		}
		pairs := randgen.AttrPairs(s.spec.DTD())
		if len(pairs) == 0 {
			continue
		}
		keysOnly := s.spec.Class() == constraint.ClassK
		seen := map[string]bool{}
		for k := 0; k < 3; k++ {
			a, b := pairs[rng.Intn(len(pairs))], pairs[rng.Intn(len(pairs))]
			var phi xic.Constraint
			switch kind := rng.Intn(3); {
			case keysOnly || kind == 0:
				phi = constraint.UnaryKey(a[0], a[1])
			case kind == 1:
				phi = constraint.UnaryInclusion(a[0], a[1], b[0], b[1])
			default:
				phi = constraint.UnaryForeignKey(a[0], a[1], b[0], b[1])
			}
			if text := phi.String(); !seen[text] {
				seen[text] = true
				cands = append(cands, query{spec: i, text: text, phi: phi})
			}
		}
	}
	ok := make([]bool, len(cands))
	parallel(len(cands), func(k int) {
		q := &cands[k]
		imp, err := w.specs[q.spec].spec.ImpliesOpts(ctx, q.phi, append(oracleOpts, xic.WithMaxNodes(drawNodes))...)
		if err == nil {
			q.implied, ok[k] = imp.Implied, true
		}
	})
	for k, q := range cands {
		if ok[k] {
			w.queries = append(w.queries, q)
		}
	}
	if len(w.queries) == 0 {
		return fmt.Errorf("decide: no implication queries")
	}
	// Every block of blockLen requests has the same make-up, shuffled:
	// registrar's witness (about half a second, the witness layer at its
	// heaviest) and school's refusal once each, cached and cold compiles,
	// then consistency checks and implication queries dealt from shuffled
	// decks, so that every stretch of a sequence has nearly the same mix.
	var pool []int
	for _, i := range decidable {
		if i != registrarSpec {
			pool = append(pool, i)
		}
	}
	kinds := make([]string, 0, blockLen)
	for _, k := range []struct {
		kind string
		n    int
	}{{"compile", 6}, {"cold", 2}, {"school", 1}, {"registrar", 1}, {"consistent", 15}} {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	for len(kinds) < blockLen {
		kinds = append(kinds, "implies")
	}
	for c := range w.seqs {
		specs, queries, witness := newDeck(rng, len(pool)), newDeck(rng, len(w.queries)), newDeck(rng, 2)
		seq := make([]request, 0, sz.seqLen)
		for n := 0; len(seq) < sz.seqLen; n++ {
			for _, j := range rng.Perm(blockLen) {
				switch kinds[j] {
				case "compile":
					seq = append(seq, request{op: "compile", spec: pool[specs.next()]})
				case "cold":
					s, err := coldSpec(rng, fmt.Sprintf("cold-%d-%d-%d", c, n, j))
					if err != nil {
						return err
					}
					seq = append(seq, request{op: "compile", spec: -1, cold: s})
				case "school":
					seq = append(seq, request{op: "consistent", spec: schoolSpec, witness: true})
				case "registrar":
					seq = append(seq, request{op: "consistent", spec: registrarSpec, witness: true})
				case "consistent":
					seq = append(seq, request{op: "consistent", spec: pool[specs.next()], witness: witness.next() == 0})
				default:
					q := queries.next()
					seq = append(seq, request{op: "implies", spec: w.queries[q].spec, query: q})
				}
			}
		}
		w.seqs[c] = seq
	}
	return nil
}

// blockLen is the length of the decide workload's repeating block.
const blockLen = 50

// coldSpec draws a random spec xicd has never seen: a comment makes its
// source, and so its fingerprint, new even when the draw repeats.
func coldSpec(rng *rand.Rand, name string) (*specDef, error) {
	for {
		s, err := randomDecideSpec(rng, name)
		if err == nil {
			return newSpec(name, fmt.Sprintf("<!-- %s -->\n%s", name, s.dtd), s.cons)
		}
	}
}

// deck deals 0 … n-1 in seeded shuffled passes, so that every stretch of
// draws holds each item nearly equally often.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	x := d.order[0]
	d.order = d.order[1:]
	return x
}

// ---- documents --------------------------------------------------------------

// libDTD and libCons are the key/foreign-key document shape of the edit
// benchmark corpus: groups keyed by id, refs pointing at them.
const (
	libDTD = `<!ELEMENT lib (grp*, ref*)>
<!ELEMENT grp (item*)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST grp id CDATA #REQUIRED tag CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`
	libCons = "grp.id -> grp\nref.to => grp.id"
	// libItems is the number of items per group.
	libItems = 40
)

// libShape returns the group and ref counts of a lib document of about n
// elements: refs are two thirds of the groups and point at the first refs
// groups only, so renaming a later group never strands a reference.
func libShape(n int) (groups, refs int) {
	groups = n * 3 / (3*(1+libItems) + 2)
	if groups < 3 {
		groups = 3
	}
	refs = groups * 2 / 3
	return groups, refs
}

// libDoc writes a lib document; each of the first dangling refs points at
// a group that does not exist.
func libDoc(rng *rand.Rand, groups, refs, dangling int) ([]byte, int) {
	var b strings.Builder
	b.WriteString("<lib>")
	for g := 0; g < groups; g++ {
		fmt.Fprintf(&b, `<grp id="g%d" tag="t%d">`, g, rng.Intn(9))
		for i := 0; i < libItems; i++ {
			fmt.Fprintf(&b, "<item>v%d</item>", rng.Intn(1000000))
		}
		b.WriteString("</grp>")
	}
	for r := 0; r < refs; r++ {
		if r < dangling {
			fmt.Fprintf(&b, `<ref to="missing%d"/>`, r)
		} else {
			fmt.Fprintf(&b, `<ref to="g%d"/>`, rng.Intn(refs))
		}
	}
	b.WriteString("</lib>")
	return []byte(b.String()), 1 + groups*(1+libItems) + refs
}

// randomDoc writes a document conforming to the spec's DTD.
func randomDoc(rng *rand.Rand, d *dtd.DTD, n, valuePool int) ([]byte, int, error) {
	var b strings.Builder
	count, err := randgen.WriteDocument(&b, d, rng, randgen.DocSpec{TargetNodes: n, ValuePool: valuePool})
	return []byte(b.String()), count, err
}

// chainDoc writes the deep chain <r><a><a>… in which every a lacks its
// required id attribute, or carries a unique one when valid.
func chainDoc(depth int, valid bool) ([]byte, int) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < depth; i++ {
		if valid {
			fmt.Fprintf(&b, `<a id="c%d">`, i)
		} else {
			b.WriteString("<a>")
		}
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	b.WriteString("</r>")
	return []byte(b.String()), depth + 1
}

const (
	chainDTD  = "<!ELEMENT r (a)>\n<!ELEMENT a (a?)>\n<!ATTLIST a id CDATA #REQUIRED>\n"
	chainCons = "a.id -> a"
)

var attrRe = regexp.MustCompile(` [A-Za-z_][A-Za-z0-9_]*="[^"]*"`)

// dropAttr removes one attribute from the second half of the document: the
// paper's model treats every declared attribute as required.
func dropAttr(body []byte) ([]byte, bool) {
	half := len(body) / 2
	loc := attrRe.FindIndex(body[half:])
	if loc == nil {
		return body, false
	}
	out := append([]byte(nil), body[:half+loc[0]]...)
	return append(out, body[half+loc[1]:]...), true
}

func (w *workload) addDoc(spec int, kind string, body []byte, elements int, valid, many bool) {
	w.docs = append(w.docs, docDef{spec: spec, kind: kind, body: body, elements: elements, valid: valid, many: many})
}

// ---- validate ---------------------------------------------------------------

func (w *workload) buildValidate(rng *rand.Rand, sz sizes) error {
	cat := len(w.specs)
	teachers := w.specs[teachersSpec]
	keys, err := newSpec("teachers-keys", teachers.dtd, "teacher.name -> teacher\nsubject.taught_by -> subject")
	if err != nil {
		return err
	}
	specs := map[string]int{"teachers-keys": w.addSpec(keys), "registrar": registrarSpec}
	for _, extra := range []struct{ name, dtd, cons string }{
		{"lib", libDTD, libCons},
		{"chain", chainDTD, chainCons},
	} {
		s, err := newSpec(extra.name, extra.dtd, extra.cons)
		if err != nil {
			return err
		}
		specs[extra.name] = w.addSpec(s)
	}
	for r := 0; r < 2; r++ {
		// Redraw until the DTD survives its round trip through source
		// text, which a few random content models do not.
		for {
			d := randomDTD(rng, randgen.DTDSpec{Types: 8, Depth: 2, AttrsPer: 2})
			s, err := newSpec(fmt.Sprintf("random-keys-%d", r), dtdSource(d), constraint.FormatSet(randgen.KeySetOver(d)))
			if err == nil {
				specs[s.name] = w.addSpec(s)
				break
			}
		}
	}
	for i := cat; i < len(w.specs); i++ {
		w.setup = append(w.setup, i)
	}

	// The document plan, sizes in thousands of elements: valid
	// documents from 10k to 100k, small ones more often, and an invalid
	// share kept small where the report path is slow.
	plan := []struct {
		spec, kind string
		size       int
	}{
		{"teachers-keys", "valid", 10}, {"teachers-keys", "valid", 28}, {"teachers-keys", "valid", 80},
		{"registrar", "valid", 14}, {"registrar", "valid", 40},
		{"random-keys-0", "valid", 10}, {"random-keys-0", "valid", 20},
		{"random-keys-1", "valid", 14}, {"random-keys-1", "valid", 56},
		{"lib", "valid", 10}, {"lib", "valid", 20}, {"lib", "valid", 100},
		{"teachers-keys", "dup-key", 10}, {"random-keys-0", "dup-key", 10},
		{"registrar", "missing-attr", 20}, {"random-keys-1", "missing-attr", 14},
		{"lib", "dangling-ref", 28}, {"lib", "dangling-many", 10},
		{"chain", "deep-chain", 0},
	}
	for _, p := range plan {
		s, n := specs[p.spec], p.size*sz.docScale
		var body []byte
		var count int
		var err error
		switch p.kind {
		case "valid", "missing-attr", "dup-key":
			pool := 0
			if p.kind == "dup-key" {
				pool = 3 // three values per attribute: four elements of a type repeat a key
			}
			if p.spec == "lib" {
				g, r := libShape(n)
				body, count = libDoc(rng, g, r, 0)
				break
			}
			if body, count, err = randomDoc(rng, w.specs[s].spec.DTD(), n, pool); err != nil {
				return err
			}
		case "dangling-ref", "dangling-many":
			g, r := libShape(n)
			dangling := 1
			if p.kind == "dangling-many" {
				dangling = min(r, 100)
			}
			body, count = libDoc(rng, g, r, dangling)
			w.addDoc(s, p.kind, body, count, false, dangling > 64)
			continue
		case "deep-chain":
			body, count = chainDoc(sz.chainDepth, false)
			w.addDoc(s, p.kind, body, count, false, sz.chainDepth > 64)
			continue
		}
		switch p.kind {
		case "valid":
			w.addDoc(s, p.kind, body, count, true, false)
		case "dup-key":
			w.addDoc(s, p.kind, body, count, false, false)
			w.docs[len(w.docs)-1].manyUnknown = true
		case "missing-attr":
			if body, ok := dropAttr(body); ok {
				w.addDoc(s, p.kind, body, count, false, false)
			}
		}
	}
	if err := w.checkDocs(); err != nil {
		return err
	}
	for c := range w.seqs {
		docs := newDeck(rng, len(w.docs))
		seq := make([]request, sz.seqLen)
		for i := range seq {
			d := docs.next()
			seq[i] = request{op: "validate", spec: w.docs[d].spec, doc: d}
		}
		w.seqs[c] = seq
	}
	return nil
}

// checkDocs confirms every generator answer on the tree path: the
// document is parsed, checked for conformance and checked against every
// constraint.
func (w *workload) checkDocs() error {
	for i, d := range w.docs {
		s := w.specs[d.spec]
		valid, err := treeValid(s.spec.DTD(), s.sigma, d.body)
		if err != nil {
			return fmt.Errorf("document %d (%s): %w", i, d.kind, err)
		}
		if valid != d.valid {
			return fmt.Errorf("document %d (%s on %s): generator says valid=%v, tree path says %v", i, d.kind, s.name, d.valid, valid)
		}
	}
	return nil
}

// ---- session ----------------------------------------------------------------

func (w *workload) buildSession(rng *rand.Rand, sz sizes) error {
	s, err := newSpec("lib", libDTD, libCons)
	if err != nil {
		return err
	}
	lib := w.addSpec(s)
	w.setup = append(w.setup, lib)
	// One valid document and one with a dangling ref per size; cycles
	// draw from this pool.
	for _, n := range sz.sessionSizes {
		groups, refs := libShape(n)
		for dangling := 0; dangling < 2; dangling++ {
			body, count := libDoc(rng, groups, refs, dangling)
			w.addDoc(lib, "valid", body, count, dangling == 0, false)
			d := &w.docs[len(w.docs)-1]
			d.groups, d.refs = groups, refs
			if dangling > 0 {
				d.kind = "dangling-ref"
			}
		}
	}
	for c := range w.seqs {
		var seq []request
		sizes, invalid := newDeck(rng, len(sz.sessionSizes)), newDeck(rng, 5)
		for cyc := 0; cyc < sz.cycles; cyc++ {
			valid := 2 * sizes.next()
			if invalid.next() == 0 {
				seq = append(seq, request{op: "open_invalid", spec: lib, doc: valid + 1})
			}
			d := w.docs[valid]
			seq = append(seq, request{op: "open", spec: lib, doc: valid})
			seq = append(seq, editCycle(rng, fmt.Sprintf("c%dy%d", c, cyc), d.groups, d.refs, d.elements, sz.batches)...)
		}
		w.seqs[c] = seq
	}
	return w.checkDocs()
}

// editCycle builds one session's edit batches, document reads and close.
// Every op is built so that its outcome is known: retargeting a ref inside
// the referenced groups, rewriting item text, renaming an unreferenced
// group to a fresh id, inserting a fresh group and deleting an inserted
// one are accepted; a duplicate group id or a dangling ref is rejected.
func editCycle(rng *rand.Rand, tag string, groups, refs, elements, batches int) []request {
	var seq []request
	inserted, fresh := 0, 0
	for b := 0; b < batches; b++ {
		var ops []xic.EditOp
		for k := 1 + rng.Intn(4); k > 0; k-- {
			switch p := rng.Intn(100); {
			case p < 30:
				ops = append(ops, xic.SetAttr(fmt.Sprintf("lib/ref[%d]", rng.Intn(refs)), "to", fmt.Sprintf("g%d", rng.Intn(refs))))
			case p < 55:
				ops = append(ops, xic.SetText(fmt.Sprintf("lib/grp[%d]/item[%d]", rng.Intn(groups), rng.Intn(libItems)), fmt.Sprintf("w%d", rng.Intn(1000000))))
			case p < 70:
				fresh++
				ops = append(ops, xic.SetAttr(fmt.Sprintf("lib/grp[%d]", refs+rng.Intn(groups-refs)), "id", fmt.Sprintf("%sr%d", tag, fresh)))
			case p < 90 || inserted == 0:
				fresh++
				ops = append(ops, xic.InsertSubtree("lib", groups+inserted,
					fmt.Sprintf(`<grp id="%sn%d" tag="t0"><item>x</item></grp>`, tag, fresh)))
				inserted++
				elements += 2
			default:
				inserted--
				ops = append(ops, xic.DeleteSubtree(fmt.Sprintf("lib/grp[%d]", groups+inserted)))
				elements -= 2
			}
		}
		req := request{op: "edits", applied: len(ops), rejected: -1}
		if rng.Intn(5) == 0 {
			req.rejected = len(ops)
			if rng.Intn(2) == 0 {
				ops = append(ops, xic.SetAttr(fmt.Sprintf("lib/grp[%d]", refs+rng.Intn(groups-refs)), "id", "g0"))
			} else {
				ops = append(ops, xic.SetAttr(fmt.Sprintf("lib/ref[%d]", rng.Intn(refs)), "to", "nowhere"))
			}
		}
		req.ops, req.elements = ops, elements
		seq = append(seq, req)
		if b%6 == 5 {
			seq = append(seq, request{op: "document", elements: elements})
		}
	}
	seq = append(seq, request{op: "document", elements: elements, final: true}, request{op: "close"})
	return seq
}
