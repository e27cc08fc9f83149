package cli

// The shared -workload flag group: the one way any command is told what
// traffic to run. The spec text is traffic.ParseSpec's grammar — an
// inline `name:key=val,...` shorthand, `json:FILE` for a spec document,
// `trace:FILE` for TRAF1 replay, or a preset name — so every command
// that drives traffic accepts exactly the same workload language.

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"repro/internal/traffic"
)

// WorkloadFlags holds the -workload flag group. Zero value is ready;
// call RegisterWorkload before flag.Parse and Spec/Build/BuildFor
// after.
type WorkloadFlags struct {
	// Workload (-workload) is the spec text; empty means the command's
	// default workload.
	Workload string
	// RecordTrace (-recordtrace) writes the workload's open-loop arrival
	// stream to FILE as a TRAF1 trace instead of (or before) running.
	RecordTrace string
	// RecordSlices (-recordslices) is how many slices -recordtrace
	// captures.
	RecordSlices int64
}

// RegisterWorkload installs the -workload flag group.
func (w *WorkloadFlags) RegisterWorkload(fs *flag.FlagSet) {
	fs.StringVar(&w.Workload, "workload", "",
		"workload spec: NAME[:key=val,...] (patterns: "+strings.Join(traffic.Patterns(), ", ")+
			"), json:FILE, trace:FILE, or a preset ("+strings.Join(presetNames(), ", ")+")")
	fs.StringVar(&w.RecordTrace, "recordtrace", "",
		"record the -workload open-loop arrival stream to FILE as a TRAF1 trace")
	fs.Int64Var(&w.RecordSlices, "recordslices", 64,
		"slices captured by -recordtrace")
}

func presetNames() []string {
	var names []string
	for n := range traffic.Presets() {
		names = append(names, n)
	}
	slices.Sort(names) // deterministic help text
	return names
}

// Given reports whether -workload was set.
func (w *WorkloadFlags) Given() bool { return w.Workload != "" }

// Spec parses -workload and checks the -recordtrace group against it.
// Returns ok=false with no error when the flag was not given.
func (w *WorkloadFlags) Spec() (traffic.Spec, bool, error) {
	if err := w.checkRecord(); err != nil {
		return traffic.Spec{}, false, err
	}
	if w.Workload == "" {
		return traffic.Spec{}, false, nil
	}
	s, err := traffic.ParseSpec(w.Workload)
	if err != nil {
		return traffic.Spec{}, false, fmt.Errorf("-workload: %w", err)
	}
	return s, true, nil
}

// checkRecord rejects a -recordtrace with nothing to record or no
// slices to record.
func (w *WorkloadFlags) checkRecord() error {
	switch {
	case w.RecordTrace == "":
		return nil
	case w.Workload == "":
		return fmt.Errorf("-recordtrace needs -workload")
	case w.RecordSlices <= 0:
		return fmt.Errorf("-recordslices: must be positive, got %d", w.RecordSlices)
	}
	return nil
}

// Build parses and compiles -workload. Returns ok=false with no error
// when the flag was not given.
func (w *WorkloadFlags) Build() (*traffic.Workload, bool, error) {
	s, ok, err := w.Spec()
	if !ok || err != nil {
		return nil, false, err
	}
	wl, err := traffic.Build(s)
	if err != nil {
		return nil, false, fmt.Errorf("-workload: %w", err)
	}
	return wl, true, nil
}

// BuildFor compiles the traffic a command drives through a device with
// the given number of input ports: the -workload spec, or def when the
// flag was not given. A spec that leaves ports unset gets the device's
// count; one that names a different count is rejected.
func (w *WorkloadFlags) BuildFor(ports int, def traffic.Spec) (*traffic.Workload, error) {
	s, ok, err := w.Spec()
	if err != nil {
		return nil, err
	}
	if !ok {
		s = def
	}
	switch {
	case s.Ports == 0:
		s.Ports = ports
	case s.Ports != ports:
		return nil, fmt.Errorf("-workload: the spec describes %d ports, the device has %d", s.Ports, ports)
	}
	wl, err := traffic.Build(s)
	if err != nil {
		return nil, fmt.Errorf("-workload: %w", err)
	}
	return wl, nil
}

// FabricDefault is what an N-chip fabric run drives without -workload:
// the antipodal permutation, external e -> (e + E/2) mod E for E
// externals, at 1,024 B. Every packet crosses chips, and it is the
// stream the repo benchmark's fabric-mesh16 workload measures.
func FabricDefault(externals int) traffic.Spec {
	return traffic.Spec{Pattern: "permutation", Size: 1024,
		Params: map[string]float64{"offset": float64(externals / 2)}}
}

// MaybeRecord writes the TRAF1 trace requested by -recordtrace.
// Returns (arrivals, true) when a trace was written; callers typically
// report and continue (or stop, for record-only invocations).
func (w *WorkloadFlags) MaybeRecord(wl *traffic.Workload, sliceCycles int64) (int, bool, error) {
	if w.RecordTrace == "" {
		return 0, false, nil
	}
	if sliceCycles <= 0 {
		sliceCycles = 4096
	}
	tr, err := traffic.Record(wl, sliceCycles, w.RecordSlices)
	if err != nil {
		return 0, false, fmt.Errorf("-recordtrace: %w", err)
	}
	if err := tr.WriteFile(w.RecordTrace); err != nil {
		return 0, false, fmt.Errorf("-recordtrace: %w", err)
	}
	return len(tr.Arrivals), true, nil
}
