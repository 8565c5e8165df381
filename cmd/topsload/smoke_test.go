package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchFile is BENCHMARK.json as the driver reads it.
type benchFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// One second per workload, both passes, on the smallest preset: every
// workload the tool has must run, those BENCHMARK.json names among them,
// and every metric the file names must be printed exactly once per pass,
// by a legal name, with the unit the file gives it, and the result line
// must carry exactly the metrics of its pass.
func TestSmokeEveryDeclaredMetricIsPrintedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real topsserve/topsrouter processes (about 25 s)")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}

	cfg := defaultConfig()
	cfg.preset, cfg.scale, cfg.datasetSeed = "beijing-small", 0.05, 3
	cfg.workload, cfg.seed, cfg.seconds = "all", 5, 1
	cfg.warm, cfg.rungBudget = 100*time.Millisecond, 10*time.Millisecond
	var stdout bytes.Buffer
	if err := runAll(&cfg, &stdout); err != nil {
		t.Fatal(err)
	}

	type block struct {
		workload string
		traced   bool
		units    map[string]string
		result   string
	}
	var blocks []*block
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "== workload "):
			f := strings.Fields(line)
			blocks = append(blocks, &block{workload: f[2], traced: strings.Contains(line, ", traced pass)"), units: map[string]string{}})
		case strings.HasPrefix(line, "{"):
			blocks[len(blocks)-1].result = line
		case strings.HasPrefix(line, "PROBLEM:"):
			t.Errorf("%s: %s", blocks[len(blocks)-1].workload, line)
		case strings.TrimSpace(line) != "":
			f := strings.Fields(line)
			b := blocks[len(blocks)-1]
			if len(f) < 3 {
				t.Errorf("%s: metric line without name, value and unit: %q", b.workload, line)
				continue
			}
			if _, dup := b.units[f[0]]; dup {
				t.Errorf("%s: %s printed twice in one pass", b.workload, f[0])
			}
			if !metricName.MatchString(f[0]) {
				t.Errorf("%s: illegal metric name %q", b.workload, f[0])
			}
			b.units[f[0]] = f[2]
		}
	}

	seen := map[string]int{}
	for _, b := range blocks {
		seen[b.workload]++
		want := bench.EndToEnd
		if b.traced {
			want = bench.PerLayer
		}
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(b.result), &res); err != nil {
			t.Fatalf("%s: result line %q: %v", b.workload, b.result, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", b.workload, b.traced, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s traced=%v: result line has %d metrics, BENCHMARK.json names %d", b.workload, b.traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if unit, ok := b.units[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s traced=%v: %s printed with unit %q, want %q", b.workload, b.traced, m.Name, unit, m.Unit)
			}
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s traced=%v: result line lacks %s in %s", b.workload, b.traced, m.Name, m.Unit)
			}
		}
	}
	for _, w := range bench.Workloads {
		if !metricName.MatchString(w.Name) {
			t.Errorf("illegal workload name %q", w.Name)
		}
		if seen[w.Name] != 2 {
			t.Errorf("workload %s ran %d passes, want untraced and traced", w.Name, seen[w.Name])
		}
	}
	// The tool may run workloads the file does not name (router_hot: too
	// exposed to the host to be held to a bound), never the other way round.
	for _, w := range workloadNames {
		if seen[w] != 2 {
			t.Errorf("workload %s ran %d passes, want untraced and traced", w, seen[w])
		}
	}
}
