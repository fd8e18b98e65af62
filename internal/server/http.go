package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"ghostdb"
	"ghostdb/internal/schema"
)

// HTTPHandler returns a JSON facade over the same DB, for clients that
// prefer HTTP to the line protocol:
//
//	GET/POST /query?q=SELECT...   -> {columns, rows, stats}
//	POST     /exec?q=INSERT...    -> {ok}
//	GET      /explain?q=SELECT... -> {plan}
//	GET      /stats               -> {totals & cache counters}
//	GET      /healthz             -> 200 {"status":"ok"} | 503 "draining"
//	GET      /metrics             -> Prometheus text exposition
//	GET/POST /trace?q=SELECT...   -> execute with a span tree attached
//	GET      /slowlog             -> slow-query ring, oldest first
//	GET      /slo                 -> rolling SLO attainment snapshot
//
// Statements rejected by the load shedder (ghostdb.ErrOverloaded)
// return 429 Too Many Requests rather than 400, so clients and load
// balancers can distinguish "back off" from "your query is wrong".
//
// The observability trio (/metrics, /trace, /slowlog) is gated by
// SetTelemetry and exports only declassified values: simulated costs
// from the metered model, scheduling bookkeeping, and canonical query
// text — the one thing the security model reveals anyway.
//
// Each request's context flows into QueryCtx/ExecCtx, so a client that
// disconnects mid-request abandons its queued admission slot — the same
// per-client cancellation contract as the TCP protocol.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		sql := r.FormValue("q")
		if sql == "" {
			httpErr(w, http.StatusBadRequest, "missing q parameter")
			return
		}
		res, err := s.db.QueryCtx(r.Context(), sql)
		if err != nil {
			httpErr(w, statusFor(err), err.Error())
			return
		}
		rows := make([][]any, len(res.Rows))
		for ri, row := range res.Rows {
			out := make([]any, len(row))
			for ci, v := range row {
				out[ci] = jsonValue(v)
			}
			rows[ri] = out
		}
		writeJSON(w, map[string]any{
			"columns": res.Columns,
			"rows":    rows,
			"stats": map[string]any{
				"sim_us":   res.Stats.SimTime.Microseconds(),
				"bus_down": res.Stats.BusDown,
				"bus_up":   res.Stats.BusUp,
				"cache":    cacheLabel(res.Stats),
			},
		})
	})
	mux.HandleFunc("/exec", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "EXEC requires POST")
			return
		}
		sql := r.FormValue("q")
		if sql == "" {
			httpErr(w, http.StatusBadRequest, "missing q parameter")
			return
		}
		if err := s.db.ExecCtx(r.Context(), sql); err != nil {
			httpErr(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	})
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) {
		sql := r.FormValue("q")
		if sql == "" {
			httpErr(w, http.StatusBadRequest, "missing q parameter")
			return
		}
		plan, err := s.db.Explain(sql)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, map[string]any{"plan": plan})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string]any)
		for _, p := range statsPairs(s.db) {
			out[p.k] = p.v
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !s.telemetry.Load() {
			httpErr(w, http.StatusNotFound, "telemetry disabled")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.db.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if !s.telemetry.Load() {
			httpErr(w, http.StatusNotFound, "telemetry disabled")
			return
		}
		sql := r.FormValue("q")
		if sql == "" {
			httpErr(w, http.StatusBadRequest, "missing q parameter")
			return
		}
		tr := ghostdb.NewTrace(sql)
		res, err := s.db.QueryCtx(r.Context(), sql, ghostdb.WithTrace(tr))
		if err != nil {
			httpErr(w, statusFor(err), err.Error())
			return
		}
		tr.Finish()
		writeJSON(w, map[string]any{
			"trace": tr.Snapshot(),
			"stats": map[string]any{
				"rows":          len(res.Rows),
				"sim_us":        res.Stats.SimTime.Microseconds(),
				"queue_wait_us": res.Stats.QueueWait.Microseconds(),
				"cache":         cacheLabel(res.Stats),
			},
		})
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if !s.telemetry.Load() {
			httpErr(w, http.StatusNotFound, "telemetry disabled")
			return
		}
		writeJSON(w, s.db.SLO())
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
		if !s.telemetry.Load() {
			httpErr(w, http.StatusNotFound, "telemetry disabled")
			return
		}
		sl := s.db.SlowLog()
		if sl == nil {
			writeJSON(w, map[string]any{"enabled": false, "entries": []ghostdb.SlowQuery{}})
			return
		}
		entries := sl.Entries()
		if entries == nil {
			entries = []ghostdb.SlowQuery{}
		}
		writeJSON(w, map[string]any{
			"enabled":      true,
			"threshold_us": sl.Threshold().Microseconds(),
			"total":        sl.Total(),
			"entries":      entries,
		})
	})
	// The wrapper meters every request: in-flight gauge around the
	// handler, status-class counter after it.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpInFlight.Add(1)
		defer s.httpInFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(rec, r)
		if i := rec.code/100 - 2; i >= 0 && i < len(s.httpCodes) {
			s.httpCodes[i].Inc()
		}
	})
}

// statusRecorder captures the response status for the per-class
// response counters (an unwritten header counts as the implicit 200).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func jsonValue(v ghostdb.Value) any {
	switch v.Kind {
	case schema.KindInt:
		return v.I
	case schema.KindFloat:
		return v.Float()
	default:
		return v.S
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// statusFor maps an engine error to an HTTP status: shed statements are
// a load condition (429), everything else is a client error (400).
func statusFor(err error) int {
	if errors.Is(err, ghostdb.ErrOverloaded) {
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

func httpErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": msg})
}
