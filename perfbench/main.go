// Command perfbench is the repository benchmark: a seeded load generator
// that starts the xicd binary built from this checkout and drives it over
// loopback with a closed loop of two clients, one connection each. Every
// reply is checked against an independent oracle. It prints a report line
// with every figure it measured and, as its last line, one JSON result:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones of an untraced run.
// With -trace 1 the run is split: an untraced half, then a traced half
// that replays every request in-process layer by layer; the metrics are
// the per-layer ones, the spans go to -out. Run it through run.sh, which
// builds both binaries first:
//
//	bash perfbench/run.sh --workload decide --seed 1 --seconds 10 --trace 0
//
// LAYERS.md lists the workloads and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	xicd     string
	root     string
	out      string
	sizes    sizes
	setups   int // set-ups per run; setup_s is their median
}

func main() {
	o := options{sizes: fullSizes, setups: 5}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "decide, validate, session, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.xicd, "xicd", "", "path to the xicd binary")
	flag.StringVar(&o.root, "root", ".", "repository root, which holds specs/")
	flag.StringVar(&o.out, "out", ".bench_build", "directory the span files are written to")
	flag.Parse()
	o.trace = trace != 0
	if o.xicd == "" || o.seconds < 1 {
		fatalf("need -xicd and -seconds >= 1")
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = []string{"decide", "validate", "session"}
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(context.Background(), o, os.Stdout)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if len(names) == 1 {
			final = res
			break
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one measured closed-loop stretch against one xicd, cut into
// equal slices: each end-to-end figure is taken per slice and reported as
// the median over the slices, so that a few seconds of interference from
// outside the benchmark do not move it.
type phase struct {
	start     time.Time
	slice     time.Duration
	sliceCPU  []time.Duration // xicd CPU time at each slice boundary
	wall      time.Duration
	samples   []sample
	failed    int
	errs      []string
	peakRSS   int64
	before    map[string]any // /debug/vars when the loop started
	after     map[string]any // and when it ended
	liveMax   int64
	attempted int
}

// slices is the number of slices a phase is cut into.
const slices = 10

// setUp starts xicd, registers every spec of the workload and checks the
// consistency of the set-up specs once. It returns the daemon and the time
// from exec to the end of the checks.
func setUp(ctx context.Context, o options, w *workload, tr *tracer) (*daemon, time.Duration, *client, error) {
	start := time.Now()
	d, err := startDaemon(o.xicd)
	if err != nil {
		return nil, 0, nil, err
	}
	c := newClient(-1, w, d.base, tr, &liveSessions{})
	defer c.close()
	for i := range w.specs {
		c.step(ctx, request{op: "compile", spec: i}, true)
	}
	for _, i := range w.setup {
		c.step(ctx, request{op: "consistent", spec: i, witness: true}, false)
	}
	return d, time.Since(start), c, nil
}

// measure runs the clients against d for dur.
func measure(ctx context.Context, w *workload, d *daemon, dur time.Duration, tr *tracer) (*phase, error) {
	p := &phase{slice: dur / slices, sliceCPU: make([]time.Duration, slices+1)}
	var err error
	if p.before, err = d.vars(ctx); err != nil {
		return nil, err
	}
	if p.sliceCPU[0], err = d.cpu(); err != nil {
		return nil, err
	}
	p.start = time.Now()
	// Read xicd's CPU time at every slice boundary.
	var cpuErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= slices; i++ {
			time.Sleep(time.Until(p.start.Add(time.Duration(i) * p.slice)))
			cpu, err := d.cpu()
			if err != nil {
				cpuErr = err
			}
			p.sliceCPU[i] = cpu
		}
	}()
	live := &liveSessions{}
	cs := run(ctx, w, d.base, p.start.Add(dur), tr, live)
	p.wall = time.Since(p.start)
	wg.Wait()
	if cpuErr != nil {
		return nil, cpuErr
	}
	if p.peakRSS, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if p.after, err = d.vars(ctx); err != nil {
		return nil, err
	}
	p.liveMax = live.max.Load()
	for _, c := range cs {
		p.samples = append(p.samples, c.samples...)
		p.failed += c.failed
		p.attempted += c.attempted
		p.errs = append(p.errs, c.errs...)
	}
	return p, nil
}

// inSlice returns the samples that completed within slice i, and the
// number of requests done in it: each request counts by the share of its
// duration that falls inside the slice, so that the figure is not rounded
// to whole requests.
func (p *phase) inSlice(i int) ([]sample, float64) {
	lo, hi := p.start.Add(time.Duration(i)*p.slice), p.start.Add(time.Duration(i+1)*p.slice)
	var out []sample
	var done float64
	for _, s := range p.samples {
		if !s.end.Before(lo) && s.end.Before(hi) {
			out = append(out, s)
		}
		begin, end := s.end.Add(-s.d), s.end
		if begin.Before(lo) {
			begin = lo
		}
		if end.After(hi) {
			end = hi
		}
		if s.d > 0 && end.After(begin) {
			done += float64(end.Sub(begin)) / float64(s.d)
		}
	}
	return out, done
}

// runWorkload makes one run of one workload and returns its result,
// writing the report line to out.
func runWorkload(ctx context.Context, o options, out io.Writer) (result, error) {
	genStart := time.Now()
	w, err := build(ctx, o.workload, o.root, o.seed, o.sizes)
	if err != nil {
		return result{}, err
	}
	gen := time.Since(genStart)

	res := result{Metrics: map[string]metric{}}
	var errs []string
	tally := func(attempted, failed int, e []string) {
		res.Attempted += attempted
		res.Failed += failed
		errs = append(errs, e...)
	}
	// Several set-ups; the last one's xicd is measured.
	var setups []float64
	var d *daemon
	for i := 0; i < o.setups; i++ {
		dd, took, c, err := setUp(ctx, o, w, nil)
		if err != nil {
			return result{}, err
		}
		tally(c.attempted, c.failed, c.errs)
		setups = append(setups, took.Seconds())
		if i < o.setups-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer func() { d.stop() }()

	secs := time.Duration(o.seconds) * time.Second
	if o.trace {
		secs /= 2
	}
	plain, err := measure(ctx, w, d, secs, nil)
	if err != nil {
		return result{}, err
	}
	tally(plain.attempted, plain.failed, plain.errs)
	rep := report(o, w, plain, setups, gen)

	if !o.trace {
		for _, k := range []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_req", "peak_rss_mb"} {
			res.Metrics[k] = rep.metrics[k]
		}
	} else {
		d.stop()
		tr := newTracer()
		var c *client
		d, _, c, err = setUp(ctx, o, w, tr)
		if err != nil {
			return result{}, err
		}
		tally(c.attempted, c.failed, c.errs)
		traced, err := measure(ctx, w, d, secs, tr)
		if err != nil {
			return result{}, err
		}
		tally(traced.attempted, traced.failed, traced.errs)
		if err := tr.allocPass(ctx); err != nil {
			return result{}, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return result{}, err
		}
		if err := tr.writeSpans(path); err != nil {
			return result{}, err
		}
		rep.extra["spans_file"] = path
		for k, v := range layerMetrics(tr, plain, traced) {
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0
	rep.extra["attempted"], rep.extra["failed"] = res.Attempted, res.Failed
	if len(errs) > 0 {
		rep.extra["errors"] = errs
	}
	line, err := json.Marshal(map[string]any{"report": rep.extra, "metrics": rep.metrics})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// reportLine is every end-to-end figure of an untraced phase.
type reportLine struct {
	metrics map[string]metric
	extra   map[string]any
}

// percentile returns the q-quantile of sorted durations, in milliseconds,
// by the nearest-rank method.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func sortedDurations(samples []sample, op string) []time.Duration {
	var ds []time.Duration
	for _, s := range samples {
		if op == "" || s.op == op {
			ds = append(ds, s.d)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report derives the end-to-end metrics of an untraced phase.
func report(o options, w *workload, p *phase, setups []float64, gen time.Duration) reportLine {
	var rps, p50, p99, cpu []float64
	for i := 0; i < slices; i++ {
		in, n := p.inSlice(i)
		ds := sortedDurations(in, "")
		rps = append(rps, n/p.slice.Seconds())
		p50 = append(p50, percentile(ds, 0.50))
		p99 = append(p99, percentile(ds, 0.99))
		cpu = append(cpu, ratio(float64(p.sliceCPU[i+1]-p.sliceCPU[i])/float64(time.Millisecond), n))
	}
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_rps": {median(rps), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p99_ms": {median(p99), "ms"},
		"cpu_ms_per_req": {median(cpu), "ms"},
		"peak_rss_mb":    {float64(p.peakRSS) / (1 << 20), "MB"},
	}
	// Per endpoint, over the whole phase; the workload's own endpoints
	// get their p50 as a named figure.
	counts := map[string]int{}
	for _, s := range p.samples {
		counts[s.op]++
	}
	latency := map[string][3]float64{}
	for op := range counts {
		ds := sortedDurations(p.samples, op)
		latency[op] = [3]float64{percentile(ds, 0.5), percentile(ds, 0.99), percentile(ds, 1)}
	}
	for op, name := range map[string]string{
		"compile": "compile_p50_ms", "consistent": "consistent_p50_ms", "implies": "implies_p50_ms",
		"validate": "validate_p50_ms", "open": "session_open_p50_ms", "edits": "edit_p50_ms",
	} {
		if counts[op] > 0 {
			m[name] = metric{latency[op][0], "ms"}
		}
	}
	if w.name != "decide" {
		var bytes int
		for _, s := range p.samples {
			bytes += s.bytes
		}
		m["doc_mb_per_s"] = metric{float64(bytes) / 1e6 / p.wall.Seconds(), "MB/s"}
	}
	slow := append([]sample(nil), p.samples...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].d > slow[j].d })
	var slowest []string
	for i := 0; i < len(slow) && i < 5; i++ {
		slowest = append(slowest, fmt.Sprintf("%.1fms %s %s", float64(slow[i].d)/1e6, slow[i].op, slow[i].about))
	}
	return reportLine{metrics: m, extra: map[string]any{
		"slowest":        slowest,
		"workload":       w.name,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"clients":        clients,
		"loop":           "closed",
		"requests":       len(p.samples),
		"per_endpoint":   counts,
		"p50_p99_max_ms": latency,
		"setup_runs_s":   setups,
		"inputs_s":       gen.Seconds(),
		"debug_vars":     scrape(p),
	}}
}
