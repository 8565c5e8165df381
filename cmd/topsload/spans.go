package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one line of the trace file. Spans of one request share trace;
// parent names the span that caused this one ("" for a root).
type span struct {
	Trace    string `json:"trace"`
	Span     string `json:"span"`
	Parent   string `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the window (or ladder) start
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// spanLog keeps spans in memory; they are written once, when the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s ...span) {
	l.mu.Lock()
	l.spans = append(l.spans, s...)
	l.mu.Unlock()
}

// request records one traced operation: client.op (due → done) contains
// client.wait (due → send) and client.http (send → done), which contains
// the server's share. The servers do not export spans yet, so that child
// is synthesised from the answer's elapsed_ms, centred in the round trip.
func (l *spanLog) request(id, workload, op string, s sample) {
	spans := []span{
		{Trace: id, Span: id + "/op", Name: "client.op." + op, StartNs: int64(s.due), EndNs: int64(s.done), Workload: workload},
		{Trace: id, Span: id + "/wait", Parent: id + "/op", Name: "client.wait", StartNs: int64(s.due), EndNs: int64(s.sent), Workload: workload},
		{Trace: id, Span: id + "/http", Parent: id + "/op", Name: "client.http", StartNs: int64(s.sent), EndNs: int64(s.done), Workload: workload},
	}
	if s.elapsedMs > 0 {
		elapsed := time.Duration(s.elapsedMs * 1e6)
		if rtt := s.done - s.sent; elapsed < rtt {
			from := s.sent + (rtt-elapsed)/2
			spans = append(spans, span{Trace: id, Span: id + "/server", Parent: id + "/http", Name: "server.handle",
				StartNs: int64(from), EndNs: int64(from + elapsed), Workload: workload})
		}
	}
	l.add(spans...)
}

// flush writes the spans as JSON lines. It runs once every goroutine that
// records spans has finished.
func (l *spanLog) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
