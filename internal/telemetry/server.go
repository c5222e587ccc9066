package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// readHeaderTimeout cuts off a scraper that opens a connection and never
// finishes its request headers. A variable only so the stalled-scraper
// test need not wait the shipped value out; nothing else writes it.
var readHeaderTimeout = 5 * time.Second

// Serve starts the optional observability HTTP listener on addr
// (e.g. "127.0.0.1:9090", or ":0" for an ephemeral port) and returns
// the bound address plus a shutdown func. Endpoints:
//
//	/metrics      Prometheus text exposition
//	/snapshot     the JSON Snapshot
//	/debug/vars   expvar (Go runtime memstats + a live mtpu snapshot)
//	/debug/pprof  net/http/pprof profiles
//
// The server runs until stop is called; handler errors never affect
// the simulation. Long-running invocations (sweeps, the future block
// stream server) point a scraper at it; batch runs simply never
// enable it.
func (m *Metrics) Serve(addr string) (boundAddr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	publishExpvar(m)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	stop = func() error {
		err := srv.Close()
		<-done // Serve always returns once Close succeeds
		return err
	}
	return ln.Addr().String(), stop, nil
}

var expvarOnce sync.Once

// publishExpvar registers the live snapshot under the "mtpu" expvar
// key. expvar panics on duplicate names, so registration is
// process-global and pinned to the first Metrics that serves.
func publishExpvar(m *Metrics) {
	expvarOnce.Do(func() {
		expvar.Publish("mtpu", expvar.Func(func() any { return m.Snapshot() }))
	})
}
