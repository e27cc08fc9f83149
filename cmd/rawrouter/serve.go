package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// runServe runs the router as a daemon: live ingest, HTTP control plane,
// SLO gates, optional continuous chaos soak with supervised
// restart-from-checkpoint. SIGTERM/SIGINT trigger drain → checkpoint →
// clean exit. base is the batch router configuration every incarnation
// starts from; workload is the synthetic feed (unused with -feed udp).
func runServe(common *cli.Common, sf *cli.ServeFlags, base router.Config, workload *traffic.Workload) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 1
	}
	logf := func(format string, args ...any) {
		fmt.Printf("serve: "+format+"\n", args...)
	}

	feedKind, feedAddr, _ := sf.FeedSpec() // validated by ValidateServe

	// The control plane outlives daemon incarnations (the supervisor may
	// build several); handlers route to the current one.
	var cur atomic.Pointer[serve.Daemon]
	ln, err := net.Listen("tcp", sf.Listen)
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
	fmt.Printf("serve: control plane listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		d := cur.Load()
		if d == nil {
			http.Error(w, "daemon is restarting", http.StatusServiceUnavailable)
			return
		}
		d.Handler().ServeHTTP(w, req)
	})}
	go srv.Serve(ln)
	// Graceful shutdown: a /drain caller's response is written only after
	// the drain completes — which is also the moment this function starts
	// returning — so give in-flight handlers a moment to flush before the
	// process exits.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)
	go func() {
		for range sigs {
			logf("signal received, draining")
			if d := cur.Load(); d != nil {
				d.RequestDrain()
			}
		}
	}()

	// Horizon for the explicit -faults/-faultseed schedule: the slice
	// budget when bounded, else one soak window's worth of cycles.
	horizon := sf.MaxSlices * sf.SliceCycles
	if horizon <= 0 {
		horizon = sf.SoakWindow
	}

	build := func(restorePath string, era uint64) (*serve.Daemon, error) {
		collector := telemetry.New(telemetry.Config{})
		events := &trace.EventLog{}

		rcfg := base
		rcfg.Metrics = collector
		rcfg.Events = events
		r, err := router.New(rcfg)
		if err != nil {
			return nil, err
		}

		var feeder serve.Feeder
		switch feedKind {
		case "udp":
			uf, err := serve.NewUDPFeeder(feedAddr)
			if err != nil {
				return nil, err
			}
			fmt.Printf("serve: udp feed listening on %s\n", uf.Addr())
			feeder = uf
		default:
			feeder, err = serve.NewWorkloadFeeder(workload, sf.SliceCycles)
			if err != nil {
				return nil, err
			}
		}

		sched, err := common.Schedule(fault.RandomOptions{
			Horizon: horizon, MaxStalls: 8, MaxFlaps: 4,
			MaxFreezes: 2, MaxDRAM: 3, MaxStallCycles: 1500,
		})
		if err != nil {
			return nil, err
		}
		if len(sched.Events) > 0 {
			fmt.Printf("serve: fault schedule: %s\n", sched)
		}

		var soak *serve.SoakOptions
		if sf.Soak {
			soak = &serve.SoakOptions{Seed: sf.SoakSeed, WindowCycles: sf.SoakWindow, Era: era}
		}

		if restorePath == "" {
			restorePath = common.Restore
		}
		var blob []byte
		if restorePath != "" {
			blob, err = os.ReadFile(restorePath)
			if err != nil {
				return nil, err
			}
		}

		d, err := serve.New(serve.Config{
			Router:                r,
			ClockHz:               rcfg.ClockHz,
			Feeder:                feeder,
			SliceCycles:           sf.SliceCycles,
			QueuePkts:             sf.QueuePkts,
			Gates:                 serve.Gates{MinGbps: sf.SLOMinGbps, MaxDropRate: sf.SLOMaxDrop, WindowSlices: sf.SLOWindow},
			CheckpointPath:        common.Checkpoint,
			CheckpointEverySlices: sf.CkptEvery,
			MaxSlices:             sf.MaxSlices,
			DrainBudgetSlices:     sf.DrainBudget,
			Base:                  sched,
			Soak:                  soak,
			Restore:               blob,
			Collector:             collector,
			Events:                events,
			Logf:                  logf,
		})
		if err != nil {
			feeder.Close()
			return nil, err
		}
		cur.Store(d)
		return d, nil
	}

	var res serve.Result
	if sf.Soak {
		res, err = serve.Supervise(serve.SupervisorConfig{
			Build: build, MaxRestarts: sf.MaxRestarts, Seed: sf.SoakSeed, Logf: logf,
		})
	} else {
		var d *serve.Daemon
		if d, err = build("", 0); err == nil {
			res, err = d.Run()
		}
	}
	if err != nil {
		return fail(err)
	}

	fmt.Printf("serve: exit %s at cycle %d (slice %d)\n", res.Reason, res.Cycle, res.Slice)
	if res.CheckpointPath != "" {
		forced := ""
		if res.Forced {
			forced = " (forced: drain budget expired)"
		}
		fmt.Printf("serve: checkpoint: %d bytes -> %s%s\n", res.CheckpointBytes, res.CheckpointPath, forced)
	}
	if d := cur.Load(); d != nil {
		st := d.Status()
		tot := st.Ingest.Totals()
		fmt.Printf("serve: ingest words offered %d admitted %d shed %d drain-discarded %d\n",
			tot.OfferedWords, tot.AdmittedWords, tot.ShedWords, tot.DrainDiscardedWords)
		fmt.Printf("serve: SLO violations %d, soak windows %d\n", st.Violations, st.SoakWindows)
	}
	if sink, _ := common.MetricsSink(); sink != nil {
		if d := cur.Load(); d != nil {
			snap := d.TelemetrySnapshot()
			if err := sink.Export(&snap); err != nil {
				return fail(err)
			}
			if sink.Path != "" {
				fmt.Printf("telemetry: %s snapshot -> %s\n", sink.Format, sink.Path)
			}
		}
	}
	if res.Reason == serve.ReasonFailed {
		return 1
	}
	return 0
}
