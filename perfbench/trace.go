package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xic"
	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/doccheck"
	"xic/internal/docsession"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/presolve"
	"xic/internal/registry"
	"xic/internal/witness"
	"xic/internal/xmltree"
)

// The traced run sends every request to xicd inside a client span, then
// replays it in-process through the public entry point of each layer, one
// span per layer call. Spans stay in memory and are written out when the
// run ends. A request's xicd cost is its HTTP span minus the in-process
// xic.* span that does the same engine work.

// span is one timed call. Spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`

	t     *tracer
	begin time.Time
}

// maxSpans bounds the spans kept in memory; later ones are counted only.
const maxSpans = 400000

// tracer collects spans, per-layer durations and counts, and holds the
// in-process mirror of xicd's state that requests are replayed against.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu        sync.Mutex
	spans     []span
	dropped   int
	durs      map[string][]time.Duration
	counts    map[string]float64
	overheads []time.Duration // per request: HTTP span minus xic.* span

	reg      *registry.Registry // mirrors xicd's registry
	states   map[string]*specState
	sessions [clients]*xic.Session
	schemas  map[*xic.Schema]bool // schemas implication queries ran against
	samples  []*allocSample
	current  [clients]*allocSample
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		durs:    map[string][]time.Duration{},
		counts:  map[string]float64{},
		reg:     registry.New(0),
		states:  map[string]*specState{},
		schemas: map[*xic.Schema]bool{},
	}
}

// root opens a request's client span, begun at start.
func (t *tracer) root(name string, start time.Time) *span {
	id := t.ids.Add(1)
	return &span{Name: name, ID: id, Req: id, t: t, begin: start}
}

func (s *span) child(name string) *span {
	id := s.t.ids.Add(1)
	return &span{Name: name, ID: id, Parent: s.ID, Req: s.Req, t: s.t, begin: time.Now()}
}

func (s *span) end() time.Duration { return s.endAt(time.Now()) }

func (s *span) endAt(at time.Time) time.Duration {
	if s == nil {
		return 0
	}
	d := at.Sub(s.begin)
	s.Start = s.begin.Sub(s.t.t0).Nanoseconds()
	s.End = s.Start + d.Nanoseconds()
	t := s.t
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, *s)
	} else {
		t.dropped++
	}
	t.durs[s.Name] = append(t.durs[s.Name], d)
	t.mu.Unlock()
	return d
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// add records a duration under a metric key that is not a span name.
func (t *tracer) add(key string, d time.Duration) {
	t.mu.Lock()
	t.durs[key] = append(t.durs[key], d)
	t.mu.Unlock()
}

func (t *tracer) count(key string, v float64) {
	t.mu.Lock()
	t.counts[key] += v
	t.mu.Unlock()
}

// engine records the xicd cost of a request whose in-process engine call
// took d.
func (t *tracer) engine(root *span, d time.Duration) {
	t.mu.Lock()
	t.overheads = append(t.overheads, root.duration()-d)
	t.mu.Unlock()
}

// specState is one spec compiled layer by layer in-process.
type specState struct {
	d     *dtd.DTD
	tmpl  *cardinality.Encoding // nil when the DTD has no encoding
	v     *xmltree.Validator
	ck    *doccheck.Checker
	sigma []constraint.Constraint
}

// allocSample is a document, and the edit batches applied to it, that the
// allocation pass re-runs with nothing else in flight.
type allocSample struct {
	st      *specState
	body    []byte
	batches [][]xic.EditOp
}

const (
	maxAllocSamples = 12
	maxAllocBatches = 40
)

func (t *tracer) state(id string) *specState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.states[id]
}

// engineSpec returns the mirror registry's spec, as xicd would serve it.
func (t *tracer) engineSpec(s *specDef) (*xic.Spec, error) {
	spec, ok := t.reg.Get(s.id)
	if !ok {
		return nil, fmt.Errorf("spec %s not in the mirror registry", s.name)
	}
	return spec, nil
}

// replay re-runs one answered request in-process.
func (t *tracer) replay(ctx context.Context, c *client, req request, root *span, resp []byte) error {
	spec := req.cold
	if spec == nil && req.spec >= 0 && req.spec < len(c.w.specs) {
		spec = c.w.specs[req.spec]
	}
	switch req.op {
	case "compile":
		return t.replayCompile(root, spec)
	case "consistent":
		return t.replayConsistent(ctx, root, spec, req.witness, resp)
	case "implies":
		return t.replayImplies(ctx, root, spec, c.w.queries[req.query], resp)
	case "validate":
		d := c.w.docs[req.doc]
		es, err := t.engineSpec(spec)
		if err != nil {
			return err
		}
		sp := root.child("xic.validate")
		rep, err := es.ValidateStream(ctx, bytes.NewReader(d.body))
		t.engine(root, sp.end())
		if err != nil {
			return err
		}
		if rep.OK() != d.valid {
			return fmt.Errorf("in-process validate: ok=%v, want %v", rep.OK(), d.valid)
		}
		return t.docChecks(ctx, c.idx, root, t.state(spec.id), d.body, d.valid)
	case "open", "open_invalid":
		return t.replayOpen(ctx, c.idx, root, spec, c.w.docs[req.doc])
	case "edits":
		return t.replayEdits(c.idx, root, req)
	case "document":
		sess := t.sessions[c.idx]
		if sess == nil {
			return errors.New("no mirror session")
		}
		sp := root.child("xic.document")
		sess.Document()
		d := sp.end()
		t.engine(root, d)
		t.add("xmltree.serialize", d)
		if req.final {
			return t.stream(ctx, root, t.state(c.w.specs[c.sidSpec].id), resp, true)
		}
	case "close":
		sp := root.child("xic.close")
		t.sessions[c.idx] = nil
		t.engine(root, sp.end())
		t.mu.Lock()
		t.current[c.idx] = nil
		t.mu.Unlock()
	}
	return nil
}

// replayCompile registers the spec with the mirror registry and, when that
// compiles it, compiles it once more layer by layer.
func (t *tracer) replayCompile(root *span, s *specDef) error {
	sp := root.child("xic.compile")
	_, cached, err := t.reg.Compile(s.dtd, s.cons)
	t.engine(root, sp.end())
	if err != nil || cached || t.state(s.id) != nil {
		return err
	}
	sp = root.child("dtd.parse")
	d, err := dtd.Parse(s.dtd)
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("dtd.simplify")
	simp := dtd.Simplify(d)
	sp.end()
	sp = root.child("cardinality.encode_dtd")
	tmpl, err := cardinality.EncodeDTD(simp)
	sp.end()
	if err != nil {
		tmpl = nil // no encoding: the decision layers are not replayed for this spec
	}
	sp = root.child("constraint.parse")
	sigma, err := constraint.Parse(s.cons)
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("schema.compile")
	schema, err := xic.CompileDTDString(s.dtd)
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("spec.bind")
	_, err = schema.BindStrings(s.cons)
	sp.end()
	if err != nil {
		return err
	}
	v := xmltree.NewValidator(d)
	v.CompileAll()
	st := &specState{d: d, tmpl: tmpl, v: v, ck: doccheck.New(d, v, sigma), sigma: sigma}
	t.mu.Lock()
	t.states[s.id] = st
	t.mu.Unlock()
	return nil
}

// classKey names a paper class in a metric name.
func classKey(c xic.Class) string {
	switch c {
	case constraint.ClassK:
		return "K"
	case constraint.ClassKFK:
		return "KFK"
	case constraint.ClassUnaryKFK:
		return "unary_KFK"
	case constraint.ClassUnaryKIC:
		return "unary_KIC"
	case constraint.ClassUnaryKNegIC:
		return "unary_KnegIC"
	case constraint.ClassUnaryFull:
		return "unary_full"
	}
	return "other"
}

// paperClasses are the classes with a core.consistent_ms metric.
var paperClasses = []xic.Class{
	constraint.ClassK, constraint.ClassKFK, constraint.ClassUnaryKFK,
	constraint.ClassUnaryKIC, constraint.ClassUnaryKNegIC, constraint.ClassUnaryFull,
}

func (t *tracer) replayConsistent(ctx context.Context, root *span, s *specDef, withWitness bool, resp []byte) error {
	es, err := t.engineSpec(s)
	if err != nil {
		return err
	}
	var opts []xic.SolveOption
	if !withWitness {
		opts = append(opts, xic.WithSkipWitness())
	}
	sp := root.child("xic.consistent")
	res, err := es.ConsistentOpts(ctx, opts...)
	d := sp.end()
	t.engine(root, d)
	t.add("core.consistent."+classKey(s.spec.Class()), d)
	if s.undecidable {
		if !errors.Is(err, xic.ErrUndecidable) {
			return fmt.Errorf("in-process consistent of %s: %v, want ErrUndecidable", s.name, err)
		}
		return nil
	}
	if err != nil {
		return err
	}
	if res.Consistent != s.consistent {
		return fmt.Errorf("in-process consistent of %s: %v, oracle says %v", s.name, res.Consistent, s.consistent)
	}
	st := t.state(s.id)
	keysOnly := s.spec.Class() == constraint.ClassK
	if st == nil || st.tmpl == nil || keysOnly && !withWitness {
		return nil // keys alone are decided on the grammar, without the solver
	}
	// The decision layers one by one, as core runs them.
	sp = root.child("cardinality.encode")
	enc := st.tmpl.Clone()
	var set []constraint.Constraint
	if keysOnly {
		err = enc.AddUnary(nil) // the witness skeleton of Theorem 3.5
	} else {
		set = st.sigma
		_, err = enc.AddFull(set)
	}
	sp.end()
	if err != nil {
		return err
	}
	t.count("cardinality.encodes", 1)
	t.count("cardinality.rows", float64(len(enc.Sys.Constraints())))

	sp = root.child("presolve.run")
	pre := presolve.Run(enc.Sys)
	sp.end()
	t.count("presolve.runs", 1)
	if pre.Decided {
		t.count("presolve.decided", 1)
	}
	t.count("presolve.rows", float64(pre.Stats.Rows))
	t.count("presolve.rows_out", float64(pre.Stats.RowsOut))

	sp = root.child("ilp.solve")
	sol, err := ilp.Solve(ctx, enc.Sys, nil)
	sp.end()
	if sol != nil {
		t.count("ilp.solves", 1)
		t.count("ilp.nodes", float64(sol.Nodes))
		t.count("simplex.pivots", float64(sol.Stats.Pivots))
		t.count("simplex.fast_pivots", float64(sol.Stats.FastPivots))
		t.count("simplex.exact_fallbacks", float64(sol.Stats.ExactFallbacks))
	}
	if err != nil {
		return err
	}
	if !withWitness || !sol.Feasible {
		return nil
	}
	sp = root.child("witness.build")
	tree, err := witness.Build(ctx, enc, set, sol.Values, nil)
	sp.end()
	if err != nil {
		return err
	}
	t.count("witness.builds", 1)
	t.count("witness.elements", float64(tree.Size()))
	sp = root.child("xmltree.serialize")
	xmltree.Serialize(tree)
	sp.end()

	// The witness xicd sent, through all three document checkers.
	var r consistentReply
	if err := json.Unmarshal(resp, &r); err != nil || r.Witness == "" {
		return nil // the client check already failed this reply
	}
	return t.docChecks(ctx, -1, root, st, []byte(r.Witness), true)
}

func (t *tracer) replayImplies(ctx context.Context, root *span, s *specDef, q query, resp []byte) error {
	es, err := t.engineSpec(s)
	if err != nil {
		return err
	}
	sp := root.child("xic.implies")
	imp, err := es.Implies(ctx, q.phi)
	t.engine(root, sp.end())
	t.mu.Lock()
	t.schemas[es.Schema()] = true
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if imp.Implied != q.implied {
		return fmt.Errorf("in-process implies %s: %v, oracle says %v", q.text, imp.Implied, q.implied)
	}
	var r impliesReply
	if err := json.Unmarshal(resp, &r); err != nil || r.Counterexample == "" {
		return nil
	}
	// A counterexample must fail (D, Σ ∪ {φ}) on the streaming path too.
	st := t.state(s.id)
	if st == nil {
		return nil
	}
	ck := doccheck.New(st.d, st.v, append(append([]constraint.Constraint(nil), st.sigma...), q.phi))
	sp = root.child("doccheck.run_invalid")
	rep, err := ck.Run(ctx, bytes.NewReader([]byte(r.Counterexample)))
	sp.end()
	if err != nil {
		return err
	}
	t.count("doccheck.run_invalid.elements", float64(rep.Elements))
	if rep.OK() {
		return fmt.Errorf("counterexample to %s passes the streaming check", q.text)
	}
	return nil
}

// stream runs the streaming checker over a document whose verdict is known.
func (t *tracer) stream(ctx context.Context, root *span, st *specState, body []byte, valid bool) error {
	if st == nil {
		return errors.New("spec not compiled in-process")
	}
	name := "doccheck.run"
	if !valid {
		name = "doccheck.run_invalid"
	}
	sp := root.child(name)
	rep, err := st.ck.Run(ctx, bytes.NewReader(body))
	sp.end()
	if err != nil {
		return err
	}
	t.count(name+".elements", float64(rep.Elements))
	if rep.OK() != valid {
		return fmt.Errorf("streaming check: ok=%v, want %v", rep.OK(), valid)
	}
	return nil
}

// parse parses a document on the tree path.
func (t *tracer) parse(root *span, body []byte) (*xmltree.Tree, error) {
	sp := root.child("xmltree.parse")
	tree, err := xmltree.Parse(bytes.NewReader(body))
	sp.end()
	t.count("xmltree.parse.bytes", float64(len(body)))
	return tree, err
}

// docChecks runs a document whose verdict is known through the three
// document checkers: the streaming checker, the tree path, and session
// ingest followed by an identity edit when the document is valid.
func (t *tracer) docChecks(ctx context.Context, client int, root *span, st *specState, body []byte, valid bool) error {
	if err := t.stream(ctx, root, st, body, valid); err != nil {
		return err
	}
	tree, err := t.parse(root, body)
	if err != nil {
		return err
	}
	sp := root.child("xmltree.validate")
	ok := st.v.Validate(tree) == nil
	if ok {
		ok, _ = constraint.SatisfiedAll(tree, st.sigma)
	}
	sp.end()
	if ok != valid {
		return fmt.Errorf("tree path: ok=%v, want %v", ok, valid)
	}
	open := "docsession.open"
	if !valid {
		open = "docsession.open_invalid" // kept out of docsession.open_ms
	}
	sp = root.child(open)
	sess, err := docsession.Open(ctx, st.ck, st.v, bytes.NewReader(body))
	sp.end()
	if !valid {
		var ide *docsession.InvalidDocumentError
		if !errors.As(err, &ide) {
			return fmt.Errorf("session ingest of an invalid document: %v", err)
		}
		return nil
	}
	if err != nil {
		return err
	}
	op, ok := identityEdit(tree)
	if !ok {
		return nil
	}
	sp = root.child("docsession.apply")
	res := sess.Apply(op)
	sp.end()
	t.count("docsession.apply.ops", 1)
	if res.Rejected != nil {
		return fmt.Errorf("identity edit %+v rejected", op)
	}
	t.sample(client, st, body, [][]xic.EditOp{{op}})
	return nil
}

// identityEdit sets the first attribute found to the value it has.
func identityEdit(tree *xmltree.Tree) (xic.EditOp, bool) {
	var op xic.EditOp
	found := false
	tree.Walk(func(n *xmltree.Node) bool {
		if found {
			return false
		}
		if names := n.AttrNames(); len(names) > 0 {
			v, _ := n.Attr(names[0])
			op, found = xic.SetAttr(tree.Path(n), names[0], v), true
		}
		return !found
	})
	return op, found
}

// sample keeps a document for the allocation pass; client >= 0 makes it
// the client's current session sample, which later edit batches extend.
func (t *tracer) sample(client int, st *specState, body []byte, batches [][]xic.EditOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) >= maxAllocSamples {
		return
	}
	s := &allocSample{st: st, body: body, batches: batches}
	t.samples = append(t.samples, s)
	if client >= 0 && batches == nil {
		t.current[client] = s
	}
}

func (t *tracer) replayOpen(ctx context.Context, client int, root *span, s *specDef, doc docDef) error {
	es, err := t.engineSpec(s)
	if err != nil {
		return err
	}
	sp := root.child("xic.session_open")
	sess, err := es.OpenSession(ctx, bytes.NewReader(doc.body))
	d := sp.end()
	t.engine(root, d)
	st := t.state(s.id)
	if doc.valid {
		if err != nil {
			return err
		}
		t.sessions[client] = sess
		t.add("docsession.open", d)
		t.sample(client, st, doc.body, nil)
	} else {
		var ide *xic.InvalidDocumentError
		if !errors.As(err, &ide) {
			return fmt.Errorf("in-process open of an invalid document: %v", err)
		}
	}
	if _, err := t.parse(root, doc.body); err != nil {
		return err
	}
	return t.stream(ctx, root, st, doc.body, doc.valid)
}

func (t *tracer) replayEdits(client int, root *span, req request) error {
	sess := t.sessions[client]
	if sess == nil {
		return errors.New("no mirror session")
	}
	sp := root.child("xic.edits")
	res := sess.Apply(req.ops...)
	d := sp.end()
	t.engine(root, d)
	t.add("docsession.apply", d)
	ops := res.Applied
	if res.Rejected != nil {
		ops++
		t.count("docsession.rejected", 1)
	}
	t.count("docsession.apply.ops", float64(ops))
	rejected := -1
	if res.Rejected != nil {
		rejected = res.Rejected.Index
	}
	if res.Applied != req.applied || rejected != req.rejected {
		return fmt.Errorf("in-process edits: applied %d rejected %d, want %d %d", res.Applied, rejected, req.applied, req.rejected)
	}
	t.mu.Lock()
	if cur := t.current[client]; cur != nil && len(cur.batches) < maxAllocBatches {
		cur.batches = append(cur.batches, req.ops)
	}
	t.mu.Unlock()
	return nil
}

// allocPass re-runs the kept samples with nothing else in flight and
// counts heap allocations (runtime.MemStats.Mallocs deltas) around
// doccheck.Checker.Run, docsession.Open and Session.Apply.
func (t *tracer) allocPass(ctx context.Context) error {
	var ms runtime.MemStats
	mallocs := func(f func()) float64 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs - before)
	}
	for _, s := range t.samples {
		var rep *doccheck.Report
		var err error
		n := mallocs(func() { rep, err = s.st.ck.Run(ctx, bytes.NewReader(s.body)) })
		if err != nil {
			return err
		}
		t.counts["alloc.doccheck"] += n
		t.counts["alloc.doccheck.elements"] += float64(rep.Elements)
		var sess *docsession.Session
		n = mallocs(func() { sess, err = docsession.Open(ctx, s.st.ck, s.st.v, bytes.NewReader(s.body)) })
		if err != nil {
			return err
		}
		t.counts["alloc.open"] += n
		t.counts["alloc.open.elements"] += float64(rep.Elements)
		for _, b := range s.batches {
			var res docsession.ApplyResult
			n = mallocs(func() { res = sess.Apply(b...) })
			ops := res.Applied
			if res.Rejected != nil {
				ops++
			}
			t.counts["alloc.apply"] += n
			t.counts["alloc.apply.ops"] += float64(ops)
		}
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median of durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(unit)
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics derives the per-layer numbers from the spans and counts.
func (t *tracer) spanMetrics() map[string]float64 {
	m := map[string]float64{}
	ms, us := time.Millisecond, time.Microsecond
	m["xicd.overhead_us"] = medianDur(t.overheads, us)
	m["schema.compile_ms"] = medianDur(t.durs["schema.compile"], ms)
	m["spec.bind_ms"] = medianDur(t.durs["spec.bind"], ms)
	var hits, misses float64
	for sch := range t.schemas {
		st := sch.ImplCacheStats()
		hits += float64(st.Hits)
		misses += float64(st.Misses)
	}
	m["schema.impl_memo_hit_ratio"] = ratio(hits, hits+misses)
	m["dtd.parse_ms"] = medianDur(t.durs["dtd.parse"], ms)
	m["dtd.simplify_ms"] = medianDur(t.durs["dtd.simplify"], ms)
	m["cardinality.encode_dtd_ms"] = medianDur(t.durs["cardinality.encode_dtd"], ms)
	m["constraint.parse_us"] = medianDur(t.durs["constraint.parse"], us)
	m["cardinality.encode_ms"] = medianDur(t.durs["cardinality.encode"], ms)
	m["cardinality.rows"] = ratio(t.counts["cardinality.rows"], t.counts["cardinality.encodes"])
	m["presolve.ms"] = medianDur(t.durs["presolve.run"], ms)
	m["presolve.decided_ratio"] = ratio(t.counts["presolve.decided"], t.counts["presolve.runs"])
	m["presolve.rows_out_ratio"] = ratio(t.counts["presolve.rows_out"], t.counts["presolve.rows"])
	m["ilp.solve_ms"] = medianDur(t.durs["ilp.solve"], ms)
	m["ilp.nodes_per_solve"] = ratio(t.counts["ilp.nodes"], t.counts["ilp.solves"])
	m["simplex.pivots_per_solve"] = ratio(t.counts["simplex.pivots"], t.counts["ilp.solves"])
	m["simplex.fast_pivot_ratio"] = ratio(t.counts["simplex.fast_pivots"], t.counts["simplex.pivots"])
	m["simplex.exact_fallbacks"] = t.counts["simplex.exact_fallbacks"]
	m["witness.build_ms"] = medianDur(t.durs["witness.build"], ms)
	m["witness.elements"] = ratio(t.counts["witness.elements"], t.counts["witness.builds"])
	for _, c := range paperClasses {
		k := classKey(c)
		m["core.consistent_ms."+k] = medianDur(t.durs["core.consistent."+k], ms)
	}
	m["xmltree.parse_mb_per_s"] = ratio(t.counts["xmltree.parse.bytes"]/1e6, sumDur(t.durs["xmltree.parse"]).Seconds())
	m["xmltree.serialize_ms"] = medianDur(t.durs["xmltree.serialize"], ms)
	m["doccheck.ns_per_element"] = ratio(float64(sumDur(t.durs["doccheck.run"])), t.counts["doccheck.run.elements"])
	m["doccheck.invalid_ns_per_element"] = ratio(float64(sumDur(t.durs["doccheck.run_invalid"])), t.counts["doccheck.run_invalid.elements"])
	m["doccheck.allocs_per_element"] = ratio(t.counts["alloc.doccheck"], t.counts["alloc.doccheck.elements"])
	m["docsession.open_ms"] = medianDur(t.durs["docsession.open"], ms)
	m["docsession.open_allocs_per_element"] = ratio(t.counts["alloc.open"], t.counts["alloc.open.elements"])
	apply := sumDur(t.durs["docsession.apply"])
	m["docsession.apply_us_per_op"] = ratio(float64(apply)/float64(us), t.counts["docsession.apply.ops"])
	m["docsession.apply_allocs_per_op"] = ratio(t.counts["alloc.apply"], t.counts["alloc.apply.ops"])
	m["docsession.reject_ratio"] = ratio(t.counts["docsession.rejected"], t.counts["docsession.apply.ops"])
	m["trace.spans"] = float64(len(t.spans) + t.dropped)
	return m
}
