package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// handler serves the registry in the Prometheus text exposition format.
func handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.writePrometheus(w)
	})
}

// snapshotHandler serves the registry as a JSON snapshot.
func snapshotHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// NewMux builds the full exposition mux: /metrics (Prometheus text),
// /snapshot (JSON), and the net/http/pprof profiling endpoints under
// /debug/pprof/.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", handler(r))
	mux.Handle("/snapshot", snapshotHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
