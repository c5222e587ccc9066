package stream

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mtpu/internal/types"
)

// maxBlockBytes bounds one submitted block's wire size — backpressure
// is pointless if a single request can balloon memory instead.
const maxBlockBytes = 8 << 20

// Ingest connection deadlines: a client that opens a connection and
// stalls — mid-headers or mid-body — is cut off instead of holding the
// connection and its goroutine forever. Headers are a few hundred bytes;
// the whole request gets the time a maxBlockBytes body needs at about
// 5 Mbit/s. Variables only so the stalled-client test need not wait the
// shipped values out; nothing else writes them.
var (
	ingestReadHeaderTimeout = 5 * time.Second
	ingestReadTimeout       = 15 * time.Second
)

// Handler returns the service's ingest HTTP handler:
//
//	POST /blocks  — submit one block; raw RLP (application/octet-stream)
//	                or JSON {"rlp":"<hex>"}. 202 accepted, 400 invalid,
//	                413 oversized, 429 queue full (Retry-After: 1),
//	                503 draining.
//	GET  /healthz — 200 with the engine name, committed height and
//	                head-state digest while accepting blocks, 503 once
//	                draining.
//
// The same handler serves the TCP and unix-socket listeners.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/blocks", s.handleBlocks)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Service) handleBlocks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBlockBytes+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxBlockBytes {
		http.Error(w, "block exceeds size limit", http.StatusRequestEntityTooLarge)
		return
	}
	raw := body
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var req struct {
			RLP string `json:"rlp"`
		}
		// Strict decode, like every other spec/envelope format in the
		// repo: a misspelled key must not silently submit garbage.
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "decoding JSON envelope: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.RLP == "" {
			// Without this, an empty envelope decodes to zero bytes and
			// falls through to a misleading block-decode error.
			http.Error(w, "JSON envelope missing rlp payload", http.StatusBadRequest)
			return
		}
		raw, err = hex.DecodeString(strings.TrimPrefix(req.RLP, "0x"))
		if err != nil {
			http.Error(w, "decoding rlp hex: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	block, err := types.DecodeBlockRLP(raw)
	if err != nil {
		http.Error(w, "decoding block: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Hash before TrySubmit: once accepted the block belongs to the
	// pipeline, whose prefetch stage rewrites the DAG concurrently.
	hash := block.Hash()
	switch err := s.TrySubmit(block); err {
	case nil:
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "%s\n", hash)
	case ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case ErrClosed:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	select {
	case <-s.quit:
		closed = true
	default:
	}
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ok %s height=%d head=%s\n", s.eng.Name(), s.Height(), s.HeadDigest())
}

// Ingest is the network face of one Service: an HTTP server listening
// on a TCP address, a unix socket path, or both, all serving Handler.
type Ingest struct {
	srv       *http.Server
	listeners []net.Listener
	unixPath  string
	wg        sync.WaitGroup

	// Addr is the bound TCP address (useful when the config asked for
	// port 0), empty if only the unix socket is listening.
	Addr string
}

// ListenAndServe starts the ingest server for s. Either addr (TCP,
// e.g. ":8573") or unixPath (a socket file, created fresh) may be
// empty, but not both. Serve errors after Close are swallowed; any
// other serve error halts the pipeline via the service's fail path.
func (s *Service) ListenAndServe(addr, unixPath string) (*Ingest, error) {
	if addr == "" && unixPath == "" {
		return nil, fmt.Errorf("stream: ingest needs a TCP address or a unix socket path")
	}
	in := &Ingest{unixPath: unixPath, srv: &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: ingestReadHeaderTimeout,
		ReadTimeout:       ingestReadTimeout,
	}}
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("stream: listening on %s: %w", addr, err)
		}
		in.Addr = ln.Addr().String()
		in.listeners = append(in.listeners, ln)
	}
	if unixPath != "" {
		// A stale socket file from a previous run would fail the bind.
		_ = os.Remove(unixPath)
		ln, err := net.Listen("unix", unixPath)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("stream: listening on unix %s: %w", unixPath, err)
		}
		in.listeners = append(in.listeners, ln)
	}
	for _, ln := range in.listeners {
		ln := ln
		in.wg.Add(1)
		go func() {
			defer in.wg.Done()
			if err := in.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				s.fail(fmt.Errorf("stream: ingest server: %w", err))
			}
		}()
	}
	return in, nil
}

// Close stops the listeners, waits briefly for in-flight requests and
// removes the unix socket file.
func (in *Ingest) Close() error {
	err := in.close()
	done := make(chan struct{})
	go func() { in.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	return err
}

func (in *Ingest) close() error {
	err := in.srv.Close()
	if in.unixPath != "" {
		_ = os.Remove(in.unixPath)
	}
	return err
}
