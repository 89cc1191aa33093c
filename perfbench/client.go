package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xic"
)

// sample is one completed request.
type sample struct {
	op    string
	end   time.Time // when the reply was in
	d     time.Duration
	bytes int    // document bytes the request carried or fetched
	about string // the spec, query or document, for the slowest-requests list
}

// client is one closed-loop caller on its own connection: it sends its
// next request only once the previous reply is in and checked.
type client struct {
	idx  int
	w    *workload
	hc   *http.Client
	base string
	tr   *tracer // nil in untraced runs

	sent      map[string]bool // cold specs this client has compiled
	sid       string          // the open session, if any
	sidSpec   int             // the spec it was opened under
	samples   []sample
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	live      *liveSessions
}

// liveSessions counts the sessions the clients hold open on xicd.
type liveSessions struct {
	n, max atomic.Int64
}

func (l *liveSessions) add(d int64) {
	n := l.n.Add(d)
	for {
		m := l.max.Load()
		if n <= m || l.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func newClient(idx int, w *workload, base string, tr *tracer, live *liveSessions) *client {
	// One idle connection per client: the two clients use two
	// connections, kept alive across requests.
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		idx:  idx,
		w:    w,
		hc:   &http.Client{Transport: transport, Timeout: 120 * time.Second},
		base: base,
		tr:   tr,
		live: live,
		sent: map[string]bool{},
	}
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// loop sends the client's sequence, from the start and wrapping around,
// until the deadline.
func (c *client) loop(ctx context.Context, deadline time.Time) {
	seq := c.w.seqs[c.idx]
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		c.step(ctx, seq[k%len(seq)], false)
	}
}

// step sends one request, checks the reply and, when traced, replays it
// in-process. fresh marks a compile of a spec xicd has not seen yet.
func (c *client) step(ctx context.Context, req request, fresh bool) {
	c.attempted++
	method, path, body, docBytes, err := c.encode(req)
	if err != nil {
		c.fail(err)
		return
	}
	start := time.Now()
	status, resp, err := c.send(ctx, method, path, body)
	elapsed := time.Since(start)
	var root *span
	if c.tr != nil {
		root = c.tr.root("http."+req.op, start)
		root.endAt(start.Add(elapsed))
	}
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", req.op, err))
		return
	}
	if req.op == "document" {
		docBytes = len(resp)
	}
	c.samples = append(c.samples, sample{op: req.op, end: start.Add(elapsed), d: elapsed, bytes: docBytes, about: c.about(req)})
	if err := c.check(ctx, req, fresh, status, resp); err != nil {
		c.fail(fmt.Errorf("%s %s: %w", method, path, err))
	}
	if c.tr != nil {
		if err := c.tr.replay(ctx, c, req, root, resp); err != nil {
			c.fail(fmt.Errorf("replay %s: %w", req.op, err))
		}
	}
}

// about names what a request is about.
func (c *client) about(req request) string {
	switch {
	case req.cold != nil:
		return "new spec"
	case req.op == "implies":
		q := c.w.queries[req.query]
		return c.w.specs[q.spec].name + ": " + q.text
	case req.op == "validate" || req.op == "open" || req.op == "open_invalid":
		d := c.w.docs[req.doc]
		return fmt.Sprintf("%s %s document, %d elements", c.w.specs[d.spec].name, d.kind, d.elements)
	case req.op == "compile" || req.op == "consistent":
		return c.w.specs[req.spec].name
	}
	return ""
}

// encode builds the HTTP request for one step.
func (c *client) encode(req request) (method, path string, body []byte, docBytes int, err error) {
	var spec *specDef
	if req.cold != nil {
		spec = req.cold
	} else if req.spec >= 0 && req.spec < len(c.w.specs) {
		spec = c.w.specs[req.spec]
	}
	switch req.op {
	case "compile":
		body, err = json.Marshal(map[string]string{"dtd": spec.dtd, "constraints": spec.cons})
		return "POST", "/v1/specs", body, 0, err
	case "consistent":
		body, err = json.Marshal(map[string]bool{"skip_witness": !req.witness})
		return "POST", "/v1/specs/" + spec.id + "/consistent", body, 0, err
	case "implies":
		body, err = json.Marshal(map[string]string{"query": c.w.queries[req.query].text})
		return "POST", "/v1/specs/" + spec.id + "/implies", body, 0, err
	case "validate":
		d := c.w.docs[req.doc].body
		return "POST", "/v1/specs/" + spec.id + "/validate", d, len(d), nil
	case "open", "open_invalid":
		d := c.w.docs[req.doc].body
		return "POST", "/v1/specs/" + spec.id + "/sessions", d, len(d), nil
	case "edits":
		body, err = json.Marshal(map[string][]xic.EditOp{"ops": req.ops})
		return "POST", "/v1/sessions/" + c.sid + "/edits", body, 0, err
	case "document":
		return "GET", "/v1/sessions/" + c.sid + "/document", nil, 0, nil
	case "close":
		return "DELETE", "/v1/sessions/" + c.sid, nil, 0, nil
	}
	return "", "", nil, 0, fmt.Errorf("unknown op %q", req.op)
}

func (c *client) send(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// Reply shapes, as far as the oracle reads them.
type (
	compileReply struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
		Class  string `json:"class"`
	}
	errorReply struct {
		Error struct {
			Kind string `json:"kind"`
		} `json:"error"`
	}
	consistentReply struct {
		Consistent bool   `json:"consistent"`
		Witness    string `json:"witness"`
	}
	impliesReply struct {
		Implied        bool   `json:"implied"`
		Counterexample string `json:"counterexample"`
	}
	validateReply struct {
		OK         bool              `json:"ok"`
		Elements   int               `json:"elements"`
		Truncated  bool              `json:"truncated"`
		Violations []json.RawMessage `json:"violations"`
	}
	openReply struct {
		SessionID string `json:"session_id"`
		Elements  int    `json:"elements"`
	}
	editsReply struct {
		Applied  int `json:"applied"`
		Elements int `json:"elements"`
		Rejected *struct {
			Index int `json:"index"`
		} `json:"rejected"`
	}
)

// decode checks the status and decodes the JSON reply.
func decode(status, want int, resp []byte, v any) error {
	if status != want {
		return fmt.Errorf("status %d, want %d: %.200s", status, want, resp)
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(resp, v); err != nil {
		return fmt.Errorf("bad reply: %w", err)
	}
	return nil
}

// check compares one reply with the oracle's expectation.
func (c *client) check(ctx context.Context, req request, fresh bool, status int, resp []byte) error {
	var spec *specDef
	if req.cold != nil {
		spec = req.cold
	} else if req.spec >= 0 {
		spec = c.w.specs[req.spec]
	}
	switch req.op {
	case "compile":
		var r compileReply
		want := http.StatusOK
		if fresh {
			want = http.StatusCreated
		}
		if req.cold != nil {
			// The first compile of a new spec is a miss; once the
			// sequence wraps around it may hit or, evicted, miss again.
			if !c.sent[spec.id] {
				want = http.StatusCreated
			} else if status == http.StatusCreated {
				want = status
			}
			c.sent[spec.id] = true
		}
		if err := decode(status, want, resp, &r); err != nil {
			return err
		}
		if r.ID != spec.id || r.Class != spec.class || r.Cached != (want == http.StatusOK) {
			return fmt.Errorf("compile of %s: got id %.12s class %s cached %v, want id %.12s class %s", spec.name, r.ID, r.Class, r.Cached, spec.id, spec.class)
		}
	case "consistent":
		if spec.undecidable {
			var r errorReply
			if err := decode(status, http.StatusUnprocessableEntity, resp, &r); err != nil {
				return err
			}
			if r.Error.Kind != "undecidable" {
				return fmt.Errorf("%s: error kind %q, want undecidable", spec.name, r.Error.Kind)
			}
			return nil
		}
		var r consistentReply
		if err := decode(status, http.StatusOK, resp, &r); err != nil {
			return err
		}
		if r.Consistent != spec.consistent {
			return fmt.Errorf("%s: consistent=%v, oracle says %v", spec.name, r.Consistent, spec.consistent)
		}
		switch {
		case req.witness && r.Consistent:
			if r.Witness == "" {
				return fmt.Errorf("%s: no witness", spec.name)
			}
			return checkWitness(spec, r.Witness)
		case r.Witness != "":
			return fmt.Errorf("%s: unexpected witness", spec.name)
		}
	case "implies":
		q := c.w.queries[req.query]
		var r impliesReply
		if err := decode(status, http.StatusOK, resp, &r); err != nil {
			return err
		}
		if r.Implied != q.implied {
			return fmt.Errorf("%s ⊨ %s: implied=%v, oracle says %v", spec.name, q.text, r.Implied, q.implied)
		}
		if r.Counterexample != "" {
			return checkCounterexample(spec, q.phi, r.Counterexample)
		}
	case "validate":
		d := c.w.docs[req.doc]
		var r validateReply
		if err := decode(status, http.StatusOK, resp, &r); err != nil {
			return err
		}
		truncated := r.Truncated == d.many || d.manyUnknown
		if r.OK != d.valid || r.Elements != d.elements || !truncated || r.OK != (len(r.Violations) == 0) {
			return fmt.Errorf("%s document on %s: ok=%v elements=%d truncated=%v, want %v %d %v",
				d.kind, spec.name, r.OK, r.Elements, r.Truncated, d.valid, d.elements, d.many)
		}
	case "open":
		d := c.w.docs[req.doc]
		var r openReply
		if err := decode(status, http.StatusCreated, resp, &r); err != nil {
			return err
		}
		if r.Elements != d.elements || r.SessionID == "" {
			return fmt.Errorf("open: %d elements, want %d", r.Elements, d.elements)
		}
		c.sid, c.sidSpec = r.SessionID, req.spec
		c.live.add(1)
	case "open_invalid":
		var r validateReply
		if err := decode(status, http.StatusUnprocessableEntity, resp, &r); err != nil {
			return err
		}
		if r.OK || len(r.Violations) == 0 {
			return fmt.Errorf("invalid document opened without violations")
		}
	case "edits":
		var r editsReply
		if err := decode(status, http.StatusOK, resp, &r); err != nil {
			return err
		}
		rejected := -1
		if r.Rejected != nil {
			rejected = r.Rejected.Index
		}
		if r.Applied != req.applied || rejected != req.rejected || r.Elements != req.elements {
			return fmt.Errorf("edits: applied %d rejected %d elements %d, want %d %d %d",
				r.Applied, rejected, r.Elements, req.applied, req.rejected, req.elements)
		}
	case "document":
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, resp)
		}
		if req.final {
			return c.restream(ctx, resp, req.elements)
		}
	case "close":
		if status != http.StatusNoContent {
			return fmt.Errorf("status %d: %.200s", status, resp)
		}
		c.sid = ""
		c.live.add(-1)
	}
	return nil
}

// restream checks the session's final document in one streaming pass.
func (c *client) restream(ctx context.Context, doc []byte, elements int) error {
	rep, err := c.w.specs[c.sidSpec].spec.ValidateStream(ctx, bytes.NewReader(doc))
	if err != nil {
		return fmt.Errorf("final document: %w", err)
	}
	if !rep.OK() || rep.Elements != elements {
		return fmt.Errorf("final document: ok=%v elements=%d, want valid with %d", rep.OK(), rep.Elements, elements)
	}
	return nil
}

// run drives all clients until the deadline and returns them.
func run(ctx context.Context, w *workload, base string, deadline time.Time, tr *tracer, live *liveSessions) []*client {
	cs := make([]*client, clients)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = newClient(i, w, base, tr, live)
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.loop(ctx, deadline)
		}(cs[i])
	}
	wg.Wait()
	for _, cl := range cs {
		cl.close()
	}
	return cs
}
