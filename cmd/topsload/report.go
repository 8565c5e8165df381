package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metric is one measured value with its unit and, where it helps reading
// it, a note (sample counts, the base a tax was taken from).
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// report is everything one pass over one workload measured.
type report struct {
	workload  string
	seed      int64
	traced    bool
	metrics   []metric
	attempted int
	failed    int
	// correct is false when an oracle disagreed: a wrong answer, a state
	// that does not match the twin's after replay, or a lost acked write.
	correct  bool
	problems []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) pass() string {
	if r.traced {
		return "traced"
	}
	return "untraced"
}

func (r *report) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes the human-readable table: one metric per line, by name,
// with its unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== workload %s (seed %d, %s pass): attempted %d, succeeded %d, failed %d\n",
		r.workload, r.seed, r.pass(), r.attempted, r.attempted-r.failed, r.failed)
	width := 0
	for _, m := range r.metrics {
		width = max(width, len(m.name))
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-*s %14.6g %s", width, m.name, m.value, m.unit)
		if m.note != "" {
			line += strings.Repeat(" ", max(1, 8-len(m.unit))) + "# " + m.note
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// resultLine renders the driver's one-line JSON result with exactly the
// metrics named — the end_to_end list on an untraced pass, the per_layer
// list on a traced one.
func (r *report) resultLine(names []struct{ Name, Unit string }) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, n := range names {
		m, ok := r.get(n.Name)
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names %q, which the %s pass over %s did not measure", n.Name, r.pass(), r.workload)
		}
		if m.unit != n.Unit {
			return "", fmt.Errorf("BENCHMARK.json gives %q the unit %q, the program measures %q", n.Name, n.Unit, m.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("%s on %s is %v", n.Name, r.workload, m.value)
		}
		out.Metrics[n.Name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
