package telemetry

// Snapshot-on-demand HTTP serving (serve-mode extension). The daemon's
// control plane renders a fresh Snapshot per request with Encode;
// ContentType keeps the format → content-type mapping in one place so
// every endpoint labels those bytes the same way.

// ContentType returns the HTTP Content-Type for an export format name.
// Unknown formats fall back to text/plain.
func ContentType(format string) string {
	switch format {
	case "prom":
		// The Prometheus text exposition format version the renderer
		// emits; scrapers negotiate on this exact value.
		return "text/plain; version=0.0.4; charset=utf-8"
	case "jsonl":
		return "application/x-ndjson"
	case "csv":
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}
