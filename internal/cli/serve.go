package cli

import (
	"flag"
	"fmt"
	"strings"
)

// ServeFlags is the daemon-mode flag group (rawrouter -serve): ingest
// bridge, control-plane listener, SLO gates, and the chaos soak loop.
// Zero value is ready; Register before flag.Parse, Validate after.
type ServeFlags struct {
	// Serve (-serve) runs the router as a long-lived service instead of
	// a fixed -cycles batch.
	Serve bool
	// Listen (-listen) is the HTTP control-plane address; port 0 picks a
	// free port (the daemon prints the resolved address).
	Listen string
	// Feed (-feed) selects the ingest source: "synthetic" (the -workload
	// spec's open-loop arrivals, offered at its rate) or "udp:HOST:PORT"
	// (live socket shim).
	Feed string
	// SliceCycles (-slice) is the admission/control time base.
	SliceCycles int64
	// QueuePkts (-queue) bounds each port's admission queue; overflow is
	// shed with a counter, never blocked.
	QueuePkts int
	// CkptEvery (-ckptevery) writes a periodic checkpoint every N slices
	// (0 = only at drain; requires -checkpoint).
	CkptEvery int64
	// MaxSlices (-maxslices) drains the daemon after N serving slices
	// (0 = run until drained or killed).
	MaxSlices int64
	// DrainBudget (-drainbudget) bounds the drain wait in slices before
	// a forced checkpoint.
	DrainBudget int64
	// Soak (-soak) layers rolling seeded chaos windows on the run;
	// SoakWindow (-soakwindow) is the window length in cycles and
	// SoakSeed (-soakseed) the seed.
	Soak       bool
	SoakWindow int64
	SoakSeed   uint64
	// MaxRestarts (-maxrestarts) bounds supervised fail-stop restarts.
	MaxRestarts int
	// SLOMinGbps (-slomingbps) is the minimum delivered throughput gate
	// (0 = off); SLOMaxDrop (-slomaxdrop) the maximum shed fraction gate
	// (0 or negative = off); SLOWindow (-slowindow) the rolling window in
	// slices.
	SLOMinGbps float64
	SLOMaxDrop float64
	SLOWindow  int
}

// RegisterServe installs the -serve flag group.
func (s *ServeFlags) RegisterServe(fs *flag.FlagSet) {
	fs.BoolVar(&s.Serve, "serve", false,
		"run as a long-lived service (live ingest + HTTP control plane) instead of a -cycles batch")
	fs.StringVar(&s.Listen, "listen", "127.0.0.1:0",
		"control-plane HTTP address (/metrics, /healthz, /readyz, /drain); port 0 picks a free port")
	fs.StringVar(&s.Feed, "feed", "synthetic",
		"ingest source: synthetic (the -workload spec's arrivals) or udp:HOST:PORT (socket shim)")
	fs.Int64Var(&s.SliceCycles, "slice", 4096,
		"admission/control slice length in cycles")
	fs.IntVar(&s.QueuePkts, "queue", 64,
		"per-port admission queue bound in packets (overflow is shed and counted)")
	fs.Int64Var(&s.CkptEvery, "ckptevery", 0,
		"write a periodic checkpoint every N slices (0 = only at drain; needs -checkpoint)")
	fs.Int64Var(&s.MaxSlices, "maxslices", 0,
		"drain after N serving slices (0 = run until drained or killed)")
	fs.Int64Var(&s.DrainBudget, "drainbudget", 256,
		"slices a drain waits for quiescence before checkpointing anyway")
	fs.BoolVar(&s.Soak, "soak", false,
		"continuous chaos: roll seeded recoverable fault windows against the SLO gates")
	fs.Int64Var(&s.SoakWindow, "soakwindow", 262144,
		"rolling chaos window length in cycles")
	fs.Uint64Var(&s.SoakSeed, "soakseed", 1,
		"seed for the rolling chaos windows")
	fs.IntVar(&s.MaxRestarts, "maxrestarts", 3,
		"supervised restart budget after router fail-stops (soak mode)")
	fs.Float64Var(&s.SLOMinGbps, "slomingbps", 0,
		"SLO gate: minimum delivered Gbps over the rolling window (0 = off)")
	fs.Float64Var(&s.SLOMaxDrop, "slomaxdrop", 0,
		"SLO gate: maximum shed fraction of offered words (0 or negative = off)")
	fs.IntVar(&s.SLOWindow, "slowindow", 8,
		"SLO rolling window length in slices")
}

// FeedSpec parses -feed into a kind ("synthetic" or "udp") and, for udp,
// the bind address.
func (s *ServeFlags) FeedSpec() (kind, addr string, err error) {
	if s.Feed == "" || s.Feed == "synthetic" {
		return "synthetic", "", nil
	}
	if rest, ok := strings.CutPrefix(s.Feed, "udp:"); ok && rest != "" {
		return "udp", rest, nil
	}
	return "", "", fmt.Errorf("-feed: want synthetic or udp:HOST:PORT, got %q", s.Feed)
}

// ValidateServe checks the serve group's cross-flag invariants against
// the common flags.
func (s *ServeFlags) ValidateServe(c *Common) error {
	if !s.Serve {
		if s.Soak {
			return fmt.Errorf("-soak requires -serve")
		}
		return nil
	}
	if _, _, err := s.FeedSpec(); err != nil {
		return err
	}
	if s.SliceCycles <= 0 {
		return fmt.Errorf("-slice: slice length must be positive, got %d", s.SliceCycles)
	}
	if s.CkptEvery > 0 && c.Checkpoint == "" {
		return fmt.Errorf("-ckptevery requires -checkpoint PATH")
	}
	if s.Soak && s.SoakWindow <= 0 {
		return fmt.Errorf("-soakwindow: window must be positive, got %d", s.SoakWindow)
	}
	if c.Trace {
		return fmt.Errorf("-trace is a batch-mode report; it cannot run with -serve")
	}
	if c.Topology != "" {
		return fmt.Errorf("-serve runs the single-chip router; it cannot run with -topology")
	}
	return nil
}
