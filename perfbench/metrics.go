package main

// layerUnits lists every per-layer metric with its unit; BENCHMARK.json's
// per_layer list names the same metrics.
var layerUnits = map[string]string{
	"xicd.overhead_us":                   "us",
	"xicd.solves":                        "count",
	"xicd.validate_elements":             "count",
	"registry.spec_hit_ratio":            "ratio",
	"registry.schema_hit_ratio":          "ratio",
	"registry.compile_ms":                "ms",
	"registry.schema_evictions":          "count",
	"sessions.live_max":                  "count",
	"sessions.evictions":                 "count",
	"schema.compile_ms":                  "ms",
	"spec.bind_ms":                       "ms",
	"schema.impl_memo_hit_ratio":         "ratio",
	"dtd.parse_ms":                       "ms",
	"dtd.simplify_ms":                    "ms",
	"constraint.parse_us":                "us",
	"cardinality.encode_dtd_ms":          "ms",
	"cardinality.encode_ms":              "ms",
	"cardinality.rows":                   "count",
	"presolve.ms":                        "ms",
	"presolve.decided_ratio":             "ratio",
	"presolve.rows_out_ratio":            "ratio",
	"ilp.solve_ms":                       "ms",
	"ilp.nodes_per_solve":                "count",
	"simplex.pivots_per_solve":           "count",
	"simplex.fast_pivot_ratio":           "ratio",
	"simplex.exact_fallbacks":            "count",
	"witness.build_ms":                   "ms",
	"witness.elements":                   "count",
	"core.consistent_ms.K":               "ms",
	"core.consistent_ms.KFK":             "ms",
	"core.consistent_ms.unary_KFK":       "ms",
	"core.consistent_ms.unary_KIC":       "ms",
	"core.consistent_ms.unary_KnegIC":    "ms",
	"core.consistent_ms.unary_full":      "ms",
	"xmltree.parse_mb_per_s":             "MB/s",
	"xmltree.serialize_ms":               "ms",
	"doccheck.ns_per_element":            "ns",
	"doccheck.invalid_ns_per_element":    "ns",
	"doccheck.allocs_per_element":        "count",
	"docsession.open_ms":                 "ms",
	"docsession.open_allocs_per_element": "count",
	"docsession.apply_us_per_op":         "us",
	"docsession.apply_allocs_per_op":     "count",
	"docsession.reject_ratio":            "ratio",
	"trace.overhead_pct":                 "%",
	"trace.spans":                        "count",
}

// num reads a number at a path of nested /debug/vars objects; absent is 0.
func num(m map[string]any, path ...string) float64 {
	var v any = m
	for _, k := range path {
		obj, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = obj[k]
	}
	f, _ := v.(float64)
	return f
}

// scrape reads xicd's own counters at the end of a phase: registry tiers,
// the implication memo, the solver, sessions and streamed elements. Keys
// ending in _delta count the measured loop only; the rest are totals since
// xicd started, set-up included.
func scrape(p *phase) map[string]float64 {
	delta := func(path ...string) float64 { return num(p.after, path...) - num(p.before, path...) }
	return map[string]float64{
		"spec_hits":               num(p.after, "cache", "tiers", "specs", "hits"),
		"spec_misses":             num(p.after, "cache", "tiers", "specs", "misses"),
		"schema_hits":             num(p.after, "cache", "tiers", "schemas", "hits"),
		"schema_misses":           num(p.after, "cache", "tiers", "schemas", "misses"),
		"schema_evictions":        num(p.after, "cache", "tiers", "schemas", "evictions"),
		"spec_evictions":          num(p.after, "cache", "tiers", "specs", "evictions"),
		"schema_work_ms":          num(p.after, "cache", "tiers", "schemas", "work_ms_total"),
		"impl_cache_hits":         num(p.after, "impl_cache", "hits"),
		"impl_cache_misses":       num(p.after, "impl_cache", "misses"),
		"solves_delta":            delta("solve", "solves"),
		"presolve_decided_delta":  delta("solve", "presolve_decided"),
		"nodes_delta":             delta("solve", "nodes"),
		"pivots_delta":            delta("solve", "pivots"),
		"fast_pivots_delta":       delta("solve", "fast_pivots"),
		"exact_fallbacks_delta":   delta("solve", "exact_fallbacks"),
		"session_opens":           num(p.after, "sessions", "opens"),
		"session_evictions":       num(p.after, "sessions", "evictions_lru") + num(p.after, "sessions", "evictions_ttl"),
		"validate_elements_delta": delta("validate_elements_total"),
	}
}

// layerMetrics assembles the per-layer result of a traced run: the
// untraced half's /debug/vars counters, the traced half's spans and
// counts, and the tracing overhead between the two halves.
func layerMetrics(tr *tracer, plain, traced *phase) map[string]metric {
	v := tr.spanMetrics()
	sc := scrape(plain)
	v["xicd.solves"] = sc["solves_delta"]
	v["xicd.validate_elements"] = sc["validate_elements_delta"]
	v["registry.spec_hit_ratio"] = ratio(sc["spec_hits"], sc["spec_hits"]+sc["spec_misses"])
	v["registry.schema_hit_ratio"] = ratio(sc["schema_hits"], sc["schema_hits"]+sc["schema_misses"])
	v["registry.compile_ms"] = ratio(sc["schema_work_ms"], sc["schema_misses"])
	v["registry.schema_evictions"] = sc["schema_evictions"]
	v["sessions.live_max"] = float64(plain.liveMax)
	v["sessions.evictions"] = sc["session_evictions"]
	p50 := func(p *phase) float64 { return percentile(sortedDurations(p.samples, ""), 0.5) }
	v["trace.overhead_pct"] = 100 * (ratio(p50(traced), p50(plain)) - 1)
	out := make(map[string]metric, len(v))
	for name, unit := range layerUnits {
		out[name] = metric{v[name], unit}
	}
	return out
}
