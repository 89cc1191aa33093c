// Command xicd serves the compiled xic engine over HTTP as a long-lived
// process: specifications are compiled once into a bounded LRU registry
// keyed by content hash, and every later request against the same spec
// skips the per-DTD work entirely (the paper's fixed-DTD amortisation,
// Corollaries 4.11 and 5.5, as a service).
//
// Endpoints (all request/response bodies JSON unless noted):
//
//	POST /v1/specs                     {"dtd": …, "constraints": …} → {"id", "cached", "class", …}
//	GET  /v1/specs/{id}                compiled-spec metadata
//	POST /v1/specs/{id}/consistent     optional {"extra": […], "sets": [[…]…], "skip_witness", "timeout"}
//	POST /v1/specs/{id}/implies        {"query": …} or {"queries": […]}
//	POST /v1/specs/{id}/diagnose       minimal inconsistent core
//	POST /v1/specs/{id}/validate       body is the XML document, streamed in bounded memory
//	POST /v1/specs/{id}/sessions       body is the XML document; opens a retained session → {"session_id", …}
//	GET  /v1/sessions/{sid}            session metadata (element count; the document is always valid)
//	GET  /v1/sessions/{sid}/document   the session's current document, as XML
//	POST /v1/sessions/{sid}/edits      {"ops": […]} applied transactionally with O(edit) re-checking
//	DELETE /v1/sessions/{sid}          close a session
//	GET  /healthz                      liveness
//	GET  /debug/vars                   expvar counters: cache hits/misses, compile latency, in-flight
//
// Every endpoint accepts ?timeout=DURATION (and the JSON endpoints a
// "timeout" field); the tighter of that and -timeout bounds the request,
// cancelling even a mid-flight NP solve. Decision errors map onto statuses
// via xic.HTTPStatus: 400 syntax, 422 invalid-or-undecidable spec,
// 409 nothing to diagnose, 504 deadline, 500 internal.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", ":8343", "listen address")
	maxSpecs := flag.Int("max-specs", 0, "bound on cached compiled specs (0 = default)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline; requests may tighten but not exceed it (0 = none)")
	maxBody := flag.Int64("max-body", DefaultMaxBody, "byte bound on JSON request bodies")
	maxDoc := flag.Int64("max-doc", 0, "byte bound on validate-endpoint documents (0 = unlimited)")
	maxSessions := flag.Int("max-sessions", 0, "bound on live document sessions (0 = default)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle lifetime of a document session (0 = default)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	flag.Parse()

	s := newServer(config{
		MaxSpecs:       *maxSpecs,
		DefaultTimeout: *timeout,
		MaxBody:        *maxBody,
		MaxDoc:         *maxDoc,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
	})
	defer s.close()
	expvar.Publish("xicd", s.vars)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("xicd: listening on %s (max specs %d, request timeout %v)", *addr, *maxSpecs, *timeout)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("xicd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("xicd: shutting down, draining for up to %v", *shutdownGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("xicd: shutdown: %v", err)
	}
	st := s.reg.Stats()
	log.Printf("xicd: done; %d specs cached (%d hits, %d misses, %d evictions), %d schemas (%d hits, %d misses, %d evictions)",
		st.SpecTier.Size, st.SpecTier.Hits, st.SpecTier.Misses, st.SpecTier.Evictions,
		st.Schemas.Size, st.Schemas.Hits, st.Schemas.Misses, st.Schemas.Evictions)
}
