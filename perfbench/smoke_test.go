package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload once at the tiny size, untraced and
// traced, and checks that no request fails and that every metric
// BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts xicd")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	xicd := filepath.Join(dir, "xicd")
	if out, err := exec.Command("go", "build", "-o", xicd, "xic/cmd/xicd").CombinedOutput(); err != nil {
		t.Fatalf("build xicd: %v\n%s", err, out)
	}
	// The workload-specific figures of the report line.
	own := map[string][]string{
		"decide":   {"compile_p50_ms", "consistent_p50_ms", "implies_p50_ms"},
		"validate": {"validate_p50_ms", "doc_mb_per_s"},
		"session":  {"session_open_p50_ms", "edit_p50_ms", "doc_mb_per_s"},
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: wl.Name, seed: 1, seconds: 2, trace: traced,
				xicd: xicd, root: "..", out: dir, sizes: tinySizes, setups: 2,
			}
			var out bytes.Buffer
			res, err := runWorkload(context.Background(), o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
			var line struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatalf("%s: report line: %v", wl.Name, err)
			}
			for _, name := range own[wl.Name] {
				if line.Metrics[name].Value <= 0 {
					t.Errorf("%s: report lacks %s", wl.Name, name)
				}
			}
		}
	}
}
