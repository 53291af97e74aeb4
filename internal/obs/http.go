package obs

import (
	"encoding/json"
	"net/http"
)

// Handler exposes the registry over HTTP:
//
//	/metrics       flat text (Prometheus-compatible "name value" lines)
//	/metrics.json  the full Snapshot as JSON (what oectl stats scrapes)
//	/debug/obs     the span ring as Chrome trace_event JSON — save it and
//	               load into chrome://tracing or ui.perfetto.dev
//
// A nil registry serves empty but well-formed documents.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot())
	})
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteChromeTrace(w)
	})
	return mux
}
