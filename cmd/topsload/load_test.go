package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that answers at once, except that one request triggers a stall
// during which nothing is answered. An open-loop generator must charge the
// stall to every request that was due meanwhile — measured from its due
// time — not just to the two that happened to be on the wire. Timing only
// send-to-answer would report two slow requests and hide the queue.
func TestOpenLoopChargesAStallToQueuedRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (about 2 s)")
	}
	const stall = 400 * time.Millisecond
	var served atomic.Int64
	var gate sync.RWMutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 50 {
			gate.Lock()
			time.Sleep(stall)
			gate.Unlock()
		} else {
			gate.RLock()
			gate.RUnlock() //nolint:staticcheck // empty critical section: wait out the stall
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"sites":[1],"estimated_utility":1,"elapsed_ms":0.01}`))
	}))
	defer srv.Close()

	d := newDriver("test", srv.URL, func(int, *queryResp) bool { return true }, nil)
	conns := []*conn{newConn(), newConn()}
	defer conns[0].close()
	defer conns[1].close()
	sched := schedule(rand.New(rand.NewSource(1)), 200, 1500*time.Millisecond, 0)
	if len(sched) != 300 {
		t.Fatalf("schedule has %d arrivals, want 300", len(sched))
	}
	d.start = time.Now()
	samples := d.openLoop(conns, sched, nil)
	if len(samples) != len(sched) {
		t.Fatalf("%d samples for %d arrivals", len(samples), len(sched))
	}

	slowFromDue, slowOnWire := 0, 0
	for _, s := range samples {
		if !s.ok {
			t.Fatalf("request failed: %+v", s)
		}
		if s.done-s.due >= stall/4 {
			slowFromDue++
		}
		if s.done-s.sent >= stall/4 {
			slowOnWire++
		}
	}
	// At 200 arrivals/s, 3/4 of a 400 ms stall covers ~60 due times.
	if slowFromDue < 40 {
		t.Errorf("%d requests were slow measured from their due time; the stall should have delayed about 60", slowFromDue)
	}
	if slowOnWire > 4 {
		t.Errorf("%d requests were slow on the wire; only the connections' in-flight requests can be", slowOnWire)
	}
	late, lagP95 := clientLag(samples)
	if late <= 0 {
		t.Errorf("client.late_share = %v; arrivals due early in a %v stall finish more than %v late", late, stall, lateAfter)
	}
	if lagP95 < 50 {
		t.Errorf("client.send_lag_p95_ms = %v; the generator could not send on time during the stall and must say so", lagP95)
	}
}

func TestScheduleIsSeededAndExact(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(7)), 200, 10*time.Second, 10)
	b := schedule(rand.New(rand.NewSource(7)), 200, 10*time.Second, 10)
	c := schedule(rand.New(rand.NewSource(8)), 200, 10*time.Second, 10)
	if len(a) != 2000 {
		t.Fatalf("%d arrivals, want 2000", len(a))
	}
	same, differ, flips := true, false, 0
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i].due != c[i].due {
			differ = true
		}
		if a[i].kind == opUpdate {
			flips++
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if cell := time.Duration(i) * 5 * time.Millisecond; a[i].due < cell || a[i].due >= cell+5*time.Millisecond {
			t.Fatalf("arrival %d due at %v, outside its cell starting %v", i, a[i].due, cell)
		}
	}
	if !same || !differ {
		t.Errorf("same seed reproduces: %v; another seed differs: %v", same, differ)
	}
	if flips != 200 {
		t.Errorf("%d flips among 2000 arrivals, want every 10th", flips)
	}
}
