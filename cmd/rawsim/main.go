// Command rawsim runs hand-written Raw assembly on the simulated chip —
// the substrate exposed directly, independent of the router. A program
// file holds sections per tile:
//
//	.tile 0
//	    li   $1, 100
//	    or   $csto, $0, $1
//	    halt
//	.switch 0
//	    route $csto->$cSo
//	    halt
//	.tile 4
//	    move $2, $csti
//	    halt
//	.switch 4
//	    route $cNi->$csti
//	    halt
//
// Usage:
//
//	rawsim [-cycles 1000] [-engine fast|ref] [-regs 0,4]
//	       [-workload SPEC -workloadpkts N]
//	       [-faults SCHEDULE] [-faultseed N]
//	       [-checkpoint FILE] [-restore FILE] prog.rawasm
//
// -engine fast (the default) or ref, the reference interpreter, picks
// the chip cycle engine; output is bit-for-bit identical under either.
//
// -workload is the only input to the chip's edge pins: it preloads each
// router ingress pin (the Figure 7-2 port layout) with -workloadpkts
// on-wire IP packets per port, drawn from a declarative workload spec
// whose ports default to the router's four. Without it the program runs
// on what its own tiles send. -regs dumps those tiles' registers
// afterwards; all boundary static outputs that received words are
// printed. -faults installs a deterministic fault
// schedule (internal/fault text encoding, e.g. "freeze@100+50:t3");
// -faultseed adds a seeded schedule of recoverable faults. -checkpoint
// FILE writes a deterministic chip checkpoint blob after the run;
// -restore FILE replays one before running -cycles more. A -restore run
// must load the same program and pass the same -faults/-faultseed as the
// run that wrote the blob — the restore verifies the replay and rejects
// a mismatched environment.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/raw/asm"
	"repro/internal/router"
	"repro/internal/traffic"
)

// main delegates to run so deferred cleanups (profile flush) execute
// before the process exits — os.Exit in main would skip them.
func main() {
	os.Exit(run())
}

func run() int {
	cycles := flag.Int64("cycles", 1000, "cycles to simulate")
	regs := flag.String("regs", "", "tiles whose registers to dump, comma separated")
	workloadPkts := flag.Int("workloadpkts", 4, "packets per port preloaded onto the router ingress pins by -workload")
	var common cli.Common
	var wflags cli.WorkloadFlags
	common.RegisterSim(flag.CommandLine)
	common.RegisterFaults(flag.CommandLine)
	common.RegisterCheckpoint(flag.CommandLine)
	common.RegisterProfile(flag.CommandLine)
	wflags.RegisterWorkload(flag.CommandLine)
	flag.Parse()
	if err := common.Validate(); err != nil {
		return fail(err)
	}
	wl, preload, err := wflags.Build()
	if err != nil {
		return fail(err)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rawsim [flags] prog.rawasm")
		return 2
	}
	stopProf, err := common.StartProfile()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return fail(err)
	}
	engine, _ := common.EngineChoice() // validated above
	cfg := raw.DefaultConfig()
	cfg.Engine = engine
	chip := raw.NewChip(cfg)
	if common.Checkpoint != "" || common.Restore != "" {
		if err := chip.EnableRecording(); err != nil {
			return fail(err)
		}
	}
	interps, err := loadProgram(chip, string(src))
	if err != nil {
		return fail(err)
	}

	sched, err := common.Schedule(fault.RandomOptions{
		Horizon: *cycles, NumTiles: chip.NumTiles(),
		MaxStalls: 8, MaxFlaps: 4, MaxFreezes: 2, MaxDRAM: 3,
		MaxStallCycles: *cycles / 10,
	})
	if err != nil {
		return fail(err)
	}
	if len(sched.Events) > 0 {
		fmt.Printf("fault schedule: %s\n", sched)
		chip.InstallFaults(fault.NewInjector(sched, chip.NumTiles()))
	}

	if ok, err := common.LoadCheckpoint(chip.RestoreSnapshot); err != nil {
		return fail(err)
	} else if ok {
		fmt.Printf("restored checkpoint %s at cycle %d\n", common.Restore, chip.Cycle())
	}

	if preload {
		if n, wrote, err := wflags.MaybeRecord(wl, 4096); err != nil {
			return fail(err)
		} else if wrote {
			fmt.Printf("workload: recorded %d arrivals -> %s\n", n, wflags.RecordTrace)
		}
		if err := pushWorkload(chip, wl, *workloadPkts); err != nil {
			return fail(err)
		}
		fmt.Printf("workload: preloaded %d packet(s)/port from %s\n", *workloadPkts, wl.Spec.String())
	}

	chip.Run(*cycles)
	fmt.Printf("ran %d cycles\n", chip.Cycle())
	if n, err := common.WriteCheckpoint(chip.Snapshot); err != nil {
		return fail(err)
	} else if n > 0 {
		fmt.Printf("checkpoint: %d bytes -> %s (cycle %d)\n", n, common.Checkpoint, chip.Cycle())
	}

	for tile := 0; tile < chip.NumTiles(); tile++ {
		for _, d := range []raw.Dir{raw.DirN, raw.DirE, raw.DirS, raw.DirW} {
			if !chip.Tile(tile).Boundary(d) {
				continue
			}
			words, cyclesOut := chip.StaticOut(tile, d).Drain()
			if len(words) == 0 {
				continue
			}
			fmt.Printf("edge out tile %d %s:", tile, d)
			for i, w := range words {
				fmt.Printf(" %d@%d", w, cyclesOut[i])
			}
			fmt.Println()
		}
	}

	if *regs != "" {
		for _, ts := range strings.Split(*regs, ",") {
			tile, err := strconv.Atoi(strings.TrimSpace(ts))
			if err != nil || tile < 0 || tile >= chip.NumTiles() {
				return fail(fmt.Errorf("bad tile %q", ts))
			}
			it, ok := interps[tile]
			if !ok {
				fmt.Printf("tile %d: no program\n", tile)
				continue
			}
			fmt.Printf("tile %d (halted=%v, retired=%d):", tile, it.Halted(), it.Retired)
			for r := 1; r < 32; r++ {
				if v := it.Reg(r); v != 0 {
					fmt.Printf(" $%d=%d", r, v)
				}
			}
			fmt.Println()
		}
	}
	return 0
}

// loadProgram parses the sectioned file and installs tile and switch
// programs.
func loadProgram(chip *raw.Chip, src string) (map[int]*asm.Interp, error) {
	interps := make(map[int]*asm.Interp)
	var kind string // "tile" or "switch"
	var tile int
	var body strings.Builder
	flush := func() error {
		if kind == "" || body.Len() == 0 {
			body.Reset()
			return nil
		}
		defer body.Reset()
		if kind == "tile" {
			it, err := asm.Load(chip.Tile(tile), body.String())
			if err != nil {
				return fmt.Errorf("tile %d: %w", tile, err)
			}
			interps[tile] = it
			return nil
		}
		prog, err := asm.AssembleSwitch(body.String())
		if err != nil {
			return fmt.Errorf("switch %d: %w", tile, err)
		}
		return chip.Tile(tile).SetSwitchProgram(prog)
	}
	for ln, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, ".tile") || strings.HasPrefix(trimmed, ".switch") {
			if err := flush(); err != nil {
				return nil, err
			}
			fields := strings.Fields(trimmed)
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: bad section header %q", ln+1, trimmed)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n >= chip.NumTiles() {
				return nil, fmt.Errorf("line %d: bad tile number %q", ln+1, fields[1])
			}
			kind = strings.TrimPrefix(fields[0], ".")
			tile = n
			continue
		}
		body.WriteString(line)
		body.WriteByte('\n')
	}
	return interps, flush()
}

// pushWorkload preloads each router ingress pin (the Figure 7-2 port
// layout) with the workload's first pkts closed-loop packets, on-wire.
func pushWorkload(chip *raw.Chip, wl *traffic.Workload, pkts int) error {
	if pkts <= 0 {
		return fmt.Errorf("-workloadpkts: must be positive, got %d", pkts)
	}
	srcs, err := wl.Sources()
	if err != nil {
		return err
	}
	if len(srcs) != len(router.Layout) {
		return fmt.Errorf("-workload: the chip has %d router ports, the spec describes %d", len(router.Layout), len(srcs))
	}
	for p, src := range srcs {
		in := chip.StaticIn(router.Layout[p].Ingress, router.Layout[p].InSide)
		for i := 0; i < pkts; i++ {
			pkt := src.Next()
			wire := ip.NewPacket(pkt.SrcIP, pkt.DstIP, 64, pkt.SizeBytes, uint16(p<<8|i))
			for _, w := range wire.Words() {
				in.Push(raw.Word(w))
			}
		}
	}
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "rawsim:", err)
	return 1
}
