package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServeEndpoints(t *testing.T) {
	m := New()
	m.ObserveReplay("scalar", 100, 4000, 8000, 3*time.Millisecond)
	m.STMIncarnations.Add(10)
	m.STMAborts.Add(2)

	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	base := "http://" + addr

	prom := get(t, base+"/metrics")
	for _, want := range []string{
		"mtpu_replays_total 1",
		"mtpu_replay_txs_total 100",
		"mtpu_stm_incarnations_total 10",
		`mtpu_block_latency_seconds{mode="scalar",quantile="0.5"}`,
		`mtpu_block_latency_seconds_count{mode="scalar"} 1`,
		"# TYPE mtpu_replays_total counter",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get(t, base+"/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot is not valid JSON: %v", err)
	}
	if snap.Replays != 1 || snap.ReplayTxs != 100 {
		t.Errorf("/snapshot = %+v, want 1 replay of 100 txs", snap)
	}

	vars := get(t, base+"/debug/vars")
	if !strings.Contains(vars, `"mtpu"`) {
		t.Error("/debug/vars does not publish the mtpu snapshot")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}

	idx := get(t, base+"/debug/pprof/")
	if !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}

func TestServeRejectsBadAddr(t *testing.T) {
	m := New()
	if _, _, err := m.Serve("256.256.256.256:1"); err == nil {
		t.Fatal("nonsense address accepted")
	}
}

// TestServeCutsOffStalledHeaders: a scraper that opens a connection and
// stops halfway through its request line is disconnected once
// readHeaderTimeout passes instead of holding the connection forever.
func TestServeCutsOffStalledHeaders(t *testing.T) {
	// Not parallel: no other test's server starts while the deadline is
	// shortened to a twentieth of the shipped one.
	shipped := readHeaderTimeout
	readHeaderTimeout = shipped / 20
	defer func() { readHeaderTimeout = shipped }()
	addr, stop, err := New().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// The client-side deadline only bounds a server that hangs.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server never closed the stalled connection: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header deadline", waited)
	}
}
