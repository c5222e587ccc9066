package stream

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"mtpu/internal/engine"
	"mtpu/internal/workload"
)

func startIngest(t *testing.T, cfg Config, spec workload.Spec) (*Service, *Ingest, *workload.Stream) {
	t.Helper()
	src, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	cfg.Genesis = src.Genesis()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	sock := filepath.Join(t.TempDir(), "mtpu.sock")
	in, err := svc.ListenAndServe("127.0.0.1:0", sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { in.Close() })
	return svc, in, src
}

// TestHTTPIngest drives the full protocol surface over TCP: raw-RLP and
// JSON-envelope submission, bad input, health, and the post-drain 503s.
func TestHTTPIngest(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 6, Txs: 8, Dep: 0.3, Seed: 21}
	svc, in, src := startIngest(t, Config{Mode: engine.ModeSTHotspot, ShadowSample: 1}, spec)
	base := "http://" + in.Addr

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}

	// Raw RLP body.
	b1, _ := src.Next()
	resp, err := http.Post(base+"/blocks", "application/octet-stream", bytes.NewReader(b1.EncodeRLP()))
	if err != nil {
		t.Fatalf("posting raw block: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw block: %s", resp.Status)
	}

	// JSON hex envelope.
	b2, _ := src.Next()
	env, _ := json.Marshal(map[string]string{"rlp": "0x" + hex.EncodeToString(b2.EncodeRLP())})
	resp, err = http.Post(base+"/blocks", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatalf("posting JSON block: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("JSON block: %s", resp.Status)
	}

	// Garbage is a 400, not an accepted block.
	resp, _ = http.Post(base+"/blocks", "application/octet-stream", bytes.NewReader([]byte("not rlp")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage block: %s, want 400", resp.Status)
	}
	resp, _ = http.Get(base + "/blocks")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /blocks: %s, want 405", resp.Status)
	}

	svc.Close()
	if resp, _ = http.Get(base + "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %s, want 503", resp.Status)
	}
	b3, _ := src.Next()
	resp, _ = http.Post(base+"/blocks", "application/octet-stream", bytes.NewReader(b3.EncodeRLP()))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post while draining: %s, want 503", resp.Status)
	}

	rep, err := svc.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if rep.Committed != 2 || rep.ShadowFails != 0 {
		t.Fatalf("committed=%d shadowFails=%d, want 2/0", rep.Committed, rep.ShadowFails)
	}
}

// TestHTTPEnvelopeStrict pins the JSON-envelope hardening: unknown
// envelope keys and empty/missing rlp payloads are 400s with pointed
// messages, not accepted blocks or misleading block-decode errors.
func TestHTTPEnvelopeStrict(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 4, Txs: 4, Seed: 55}
	svc, in, src := startIngest(t, Config{Mode: engine.ModeScalar}, spec)
	base := "http://" + in.Addr

	b, _ := src.Next()
	hexRLP := "0x" + hex.EncodeToString(b.EncodeRLP())
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/blocks", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("post %q: %v", body, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	// A misspelled key must not be silently dropped.
	code, msg := post(`{"rpl":"` + hexRLP + `"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown envelope key: %d %q, want 400", code, msg)
	}
	if !bytes.Contains([]byte(msg), []byte("envelope")) {
		t.Fatalf("unknown-key error %q does not name the envelope", msg)
	}

	// Empty and missing rlp payloads are envelope errors, not block ones.
	for _, body := range []string{`{}`, `{"rlp":""}`} {
		code, msg = post(body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %d %q, want 400", body, code, msg)
		}
		if !bytes.Contains([]byte(msg), []byte("missing rlp")) {
			t.Fatalf("%s error %q does not say missing rlp", body, msg)
		}
	}

	// The well-formed envelope still works after the rejections.
	code, msg = post(`{"rlp":"` + hexRLP + `"}`)
	if code != http.StatusAccepted {
		t.Fatalf("valid envelope: %d %q, want 202", code, msg)
	}
	rep, err := svc.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Committed != 1 {
		t.Fatalf("committed %d, want 1", rep.Committed)
	}
}

// TestUnixIngest submits a block over the unix socket listener.
func TestUnixIngest(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 2, Txs: 6, Seed: 33}
	svc, in, src := startIngest(t, Config{Mode: engine.ModeScalar}, spec)

	sock := in.unixPath
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
	b, _ := src.Next()
	resp, err := client.Post("http://unix/blocks", "application/octet-stream", bytes.NewReader(b.EncodeRLP()))
	if err != nil {
		t.Fatalf("posting over unix socket: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unix block: %s", resp.Status)
	}
	rep, err := svc.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Committed != 1 {
		t.Fatalf("committed %d, want 1", rep.Committed)
	}
}

// TestHTTPQueueFull stalls the executor behind a depth-1 queue and
// floods ingest until the server answers 429 with a Retry-After hint.
func TestHTTPQueueFull(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 32, Txs: 2, Seed: 44}
	src, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	svc, err := New(Config{Mode: engine.ModeScalar, Genesis: src.Genesis(), Queue: 1})
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	release := make(chan struct{})
	svc.execHook = func() {
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
	}
	in, err := svc.ListenAndServe("127.0.0.1:0", "")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer in.Close()

	saw429 := false
	for i := 0; i < spec.Blocks; i++ {
		b, ok := src.Next()
		if !ok {
			break
		}
		resp, err := http.Post("http://"+in.Addr+"/blocks", "application/octet-stream", bytes.NewReader(b.EncodeRLP()))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("block %d: %s", i, resp.Status)
		}
	}
	if !saw429 {
		t.Fatal(fmt.Sprintf("no 429 across %d posts against a stalled depth-1 pipeline", spec.Blocks))
	}
	close(release)
	if _, err := svc.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestIngestCutsOffStalledClients pins the two connection deadlines. A
// client that stops halfway through its request line is disconnected
// once ingestReadHeaderTimeout passes; one that sends its headers and
// then trickles a body short of its Content-Length gets a 4xx (or a
// closed connection) once ingestReadTimeout passes — neither holds its
// connection forever. A well-formed POST made while both stall is still
// accepted.
func TestIngestCutsOffStalledClients(t *testing.T) {
	// The server under test gets the shipped deadlines' shape at a twentieth
	// of their length; restored once the parallel subtests are done.
	header, whole := ingestReadHeaderTimeout, ingestReadTimeout
	ingestReadHeaderTimeout, ingestReadTimeout = header/20, whole/20
	t.Cleanup(func() { ingestReadHeaderTimeout, ingestReadTimeout = header, whole })

	spec := workload.Spec{Kind: "token", Blocks: 2, Txs: 4, Seed: 66}
	svc, in, src := startIngest(t, Config{Mode: engine.ModeScalar}, spec)

	// awaitCutoff reads conn until the server ends it and returns what
	// arrived; the client-side deadline only bounds a server that hangs.
	awaitCutoff := func(conn net.Conn, within time.Duration) (string, error) {
		conn.SetReadDeadline(time.Now().Add(within + 10*time.Second))
		reply, err := io.ReadAll(conn)
		return string(reply), err
	}

	t.Run("half a request line", func(t *testing.T) {
		t.Parallel()
		conn, err := net.Dial("tcp", in.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST /blo"); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := awaitCutoff(conn, ingestReadHeaderTimeout); err != nil {
			t.Fatalf("server never closed the stalled connection: %v", err)
		}
		if waited := time.Since(start); waited < ingestReadHeaderTimeout/2 {
			t.Fatalf("connection closed after %v, before the header deadline", waited)
		}
	})

	t.Run("slow body", func(t *testing.T) {
		t.Parallel()
		conn, err := net.Dial("tcp", in.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		head := "POST /blocks HTTP/1.1\r\nHost: x\r\nContent-Type: application/octet-stream\r\nContent-Length: 4096\r\n\r\nabc"
		if _, err := io.WriteString(conn, head); err != nil {
			t.Fatal(err)
		}
		reply, err := awaitCutoff(conn, ingestReadTimeout)
		if err != nil {
			t.Fatalf("server never ended the slow-body request: %v", err)
		}
		if reply != "" && !bytes.HasPrefix([]byte(reply), []byte("HTTP/1.1 4")) {
			t.Fatalf("slow-body request answered %q, want a 4xx or a closed connection", reply)
		}
	})

	t.Run("well-formed post", func(t *testing.T) {
		t.Parallel()
		b, _ := src.Next()
		resp, err := http.Post("http://"+in.Addr+"/blocks", "application/octet-stream", bytes.NewReader(b.EncodeRLP()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("well-formed block: %s, want 202", resp.Status)
		}
		rep, err := svc.Drain()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if rep.Committed != 1 {
			t.Fatalf("committed %d, want 1", rep.Committed)
		}
	})
}
