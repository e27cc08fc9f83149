package serve

import (
	"encoding/json"
	"net/http"

	"repro/internal/telemetry"
)

// HTTP control plane. Handlers never touch simulator state directly:
// /healthz and /readyz serve the atomically published Status, while
// /metrics and /drain post a request onto the control channel the slice
// loop services between slices (or, once the loop has exited, run
// inline — the Done close makes the loop's final memory visible).

// callOnLoop runs f on the slice loop between slices and waits for it.
// If the loop has already exited (or exits before servicing the
// request), f runs inline on the caller — safe, because after Done no
// goroutine touches the daemon again.
func (d *Daemon) callOnLoop(f func()) {
	ran := make(chan struct{})
	select {
	case d.ctl <- func() { f(); close(ran) }:
		select {
		case <-ran:
		case <-d.done:
			select {
			case <-ran:
			default:
				f()
			}
		}
	case <-d.done:
		f()
	}
}

// Handler returns the control-plane mux: /metrics, /healthz, /readyz,
// /drain.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/readyz", d.handleReadyz)
	mux.HandleFunc("/drain", d.handleDrain)
	return mux
}

// handleMetrics renders the daemon's telemetry snapshot — router plus
// serve plane — on demand (default Prometheus text;
// ?format=jsonl|csv|prom).
func (d *Daemon) handleMetrics(w http.ResponseWriter, req *http.Request) {
	format := req.URL.Query().Get("format")
	if format == "" {
		format = "prom"
	}
	var body []byte
	var err error
	d.callOnLoop(func() {
		snap := d.TelemetrySnapshot()
		body, err = snap.Encode(format)
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentType(format))
	w.Write(body)
}

// TelemetrySnapshot is the router's snapshot with the serve plane from
// the last published status; call it on the slice loop or after Run.
func (d *Daemon) TelemetrySnapshot() telemetry.Snapshot {
	snap, st := d.r.TelemetrySnapshot(), d.Status()
	snap.Serve = &telemetry.ServeSample{State: int(st.State), Ready: st.Ready, Slice: st.Slice,
		SoakWindows: st.SoakWindows, WindowGbps: st.WindowGbps, Violations: st.Violations}
	for p, l := range st.Ingest.Ports {
		snap.Serve.Ports[p] = telemetry.ServePort{Port: p, Offered: l.OfferedWords, Admitted: l.AdmittedWords,
			Shed: l.ShedWords, DrainDiscarded: l.DrainDiscardedWords, Queued: l.QueuedWords}
	}
	return snap
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleHealthz reports liveness: 200 while the process is serving or
// winding down cleanly, 503 once the router fail-stopped.
func (d *Daemon) handleHealthz(w http.ResponseWriter, req *http.Request) {
	st := d.Status()
	code := http.StatusOK
	if st.RouterFailed || st.State == StateFailed {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// handleReadyz reports readiness: 200 only while serving with a healthy
// router (no degraded port, restore, or probation) and no active SLO
// violation.
func (d *Daemon) handleReadyz(w http.ResponseWriter, req *http.Request) {
	st := d.Status()
	if st.Ready {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "slice": st.Slice, "cycle": st.Cycle})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"ready": false, "reason": st.NotReadyReason, "state": st.StateName,
		"slice": st.Slice, "cycle": st.Cycle,
	})
}

// drainResponse is /drain's JSON body.
type drainResponse struct {
	Reason     string `json:"reason"`
	Checkpoint string `json:"checkpoint,omitempty"`
	Bytes      int    `json:"bytes,omitempty"`
	Forced     bool   `json:"forced,omitempty"`
	Cycle      int64  `json:"cycle"`
	Slice      int64  `json:"slice"`
}

// handleDrain (POST) initiates drain → checkpoint → exit and replies
// once the checkpoint is on disk — live migration as an HTTP call.
// Repeated calls coalesce and all receive the same result.
func (d *Daemon) handleDrain(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost && req.Method != http.MethodGet {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	ch := d.RequestDrain()
	var res Result
	select {
	case res = <-ch:
	case <-d.done:
		select {
		case res = <-ch:
		default:
			if p := d.FinalResult(); p != nil {
				res = *p
			}
		}
	}
	writeJSON(w, http.StatusOK, drainResponse{
		Reason:     res.Reason.String(),
		Checkpoint: res.CheckpointPath,
		Bytes:      res.CheckpointBytes,
		Forced:     res.Forced,
		Cycle:      res.Cycle,
		Slice:      res.Slice,
	})
}
