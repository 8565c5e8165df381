package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// routeStat is one endpoint's block in a topsserve /statsz.
type routeStat struct {
	Requests uint64  `json:"requests"`
	TotalMs  float64 `json:"total_ms"`
}

// statsz holds the /statsz fields the ledger reads. One struct covers both
// tiers: topsserve fills the nested blocks, topsrouter the top-level
// counters; whatever a tier does not report stays zero.
type statsz struct {
	Engine struct {
		Queries      uint64 `json:"queries"`
		BatchQueries uint64 `json:"batch_queries"`
		LSN          uint64 `json:"lsn"`
		CoverHits    uint64 `json:"cover_hits"`
		CoverMisses  uint64 `json:"cover_misses"`
		CoverNs      int64  `json:"cover_time_ns"`
		GreedyNs     int64  `json:"greedy_time_ns"`
	} `json:"engine"`
	Routes   map[string]routeStat `json:"routes"`
	Batching struct {
		Flushes   uint64 `json:"flushes"`
		Coalesced uint64 `json:"coalesced_queries"`
	} `json:"batching"`
	Ingest struct {
		Matched  uint64 `json:"matched"`
		Rejected uint64 `json:"rejected"`
		Points   uint64 `json:"points"`
		Batches  uint64 `json:"batches"`
		MatchMs  uint64 `json:"match_ms"`
		ApplyMs  uint64 `json:"apply_ms"`
	} `json:"ingest"`
	WAL struct {
		Appends       uint64 `json:"appends"`
		Syncs         uint64 `json:"syncs"`
		AppendedBytes int64  `json:"appended_bytes"`
	} `json:"wal"`
	Memory struct {
		Mallocs       uint64  `json:"mallocs"`
		GCCPUFraction float64 `json:"gc_cpu_fraction"`
	} `json:"memory"`

	// topsrouter
	Queries   uint64 `json:"queries"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
}

func parseStatsz(r io.Reader) (*statsz, error) {
	var st statsz
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &st, nil
}

// promSamples maps `name{labels}` (labels exactly as exposed, base labels
// included) to the sample value of one /metrics scrape.
type promSamples map[string]float64

// parseMetrics reads a Prometheus text exposition, keeping every sample
// line and skipping comments. The servers' exposition is validated by
// their own tests; here a malformed line is an error, not skipped.
func parseMetrics(r io.Reader) (promSamples, error) {
	out := make(promSamples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histogram returns the _sum (seconds) and _count of family's series. The
// families read here have one series each; both tiers prepend their base
// labels (role, shard), so the lookup goes by metric name alone.
func (p promSamples) histogram(family string) (sum, count float64) {
	for key, v := range p {
		switch name, _, _ := strings.Cut(key, "{"); name {
		case family + "_sum":
			sum = v
		case family + "_count":
			count = v
		}
	}
	return sum, count
}

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	cpuMs float64 // utime+stime
	hwmMB float64 // VmHWM, the peak resident set
	rssMB float64 // VmRSS, the resident set now
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var ps procSample
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	ticks, err := parseProcStatTicks(string(raw))
	if err != nil {
		return ps, err
	}
	ps.cpuMs = float64(ticks) * 1000 / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	ps.hwmMB = parseStatusMB(string(status), "VmHWM:")
	ps.rssMB = parseStatusMB(string(status), "VmRSS:")
	return ps, nil
}

// parseProcStatTicks extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStatTicks(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric cpu fields in /proc stat line %q", stat)
	}
	return ut + st, nil
}

// parseStatusMB reads one kB-valued field of /proc/<pid>/status.
func parseStatusMB(status, field string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// hostTicks reads the machine-wide CPU line of /proc/stat: all ticks, and
// the ticks the hypervisor gave to someone else while this guest wanted to
// run. A window with a visible steal share was measured on a disturbed box.
func hostTicks() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return parseHostTicks(string(raw))
}

func parseHostTicks(stat string) (total, steal float64) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		t, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += t
		}
		if i == 7 {
			steal = t
		}
	}
	return total, steal
}

// scrape is everything read from one server-side process at one instant.
type scrape struct {
	stats   *statsz
	metrics promSamples
	proc    procSample
}

func scrapeProc(client *http.Client, p *proc) (*scrape, error) {
	var s scrape
	resp, err := client.Get(p.url + "/statsz")
	if err != nil {
		return nil, err
	}
	s.stats, err = parseStatsz(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	resp, err = client.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	s.metrics, err = parseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	if s.proc, err = readProc(p.cmd.Process.Pid); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return &s, nil
}
