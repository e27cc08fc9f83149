package traffic

// The declarative workload API. A Spec names a pattern from the
// registry plus the distributions, load curve, and seed that
// parameterize it; Build compiles the Spec into a Workload exposing the
// two driving contracts:
//
//   - closed-loop: Workload.Source(port).Next() — the caller decides
//     when the next packet is offered (saturation studies, the paper's
//     fixed sweeps);
//   - open-loop: Workload.OpenLoop(sliceCycles).Slice(k) — timestamped
//     arrivals the workload decides, a pure function of (Spec, k), so a
//     restored run resumes the identical stream and a recorded trace
//     replays byte-identically.
//
// The Spec replaces the NewUniform/NewHotspot/NewBursty/NewSizeMix/...
// constructor zoo: patterns self-register (Register) and every consumer
// — serve feeder, experiment harness, cluster collectives, the click
// and switchfab baselines, the -workload CLI flag — goes through Build.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ip"
)

// Surge is one flash-crowd episode of an open-loop load curve: offered
// load is multiplied by Mult over cycles [At, At+Dur).
type Surge struct {
	At   int64   `json:"at"`
	Dur  int64   `json:"dur"`
	Mult float64 `json:"mult"`
}

// Spec is the declarative workload description. The zero value of every
// field is a sensible default (filled by Build); Pattern is the only
// required field.
type Spec struct {
	// Pattern names a registered pattern (see Patterns()).
	Pattern string `json:"pattern"`
	// Ports is the port count the workload spans (default 4).
	Ports int `json:"ports,omitempty"`
	// Size is the fixed on-wire packet size in bytes, header included
	// (default 1024). Ignored when Sizes is set.
	Size int `json:"size,omitempty"`
	// Seed drives every random draw (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Params are pattern-specific knobs; missing keys take the pattern's
	// registered defaults (e.g. hotspot frac, Zipf skew, Pareto alpha).
	Params map[string]float64 `json:"params,omitempty"`
	// Sizes/Weights draw each packet's size from a weighted mix instead
	// of the fixed Size (flow patterns draw once per flow).
	Sizes   []int     `json:"sizes,omitempty"`
	Weights []float64 `json:"weights,omitempty"`

	// Rate is the open-loop offered load per port in words per cycle
	// (1.0 = line rate; default 0.8). Closed-loop drivers ignore it.
	Rate float64 `json:"rate,omitempty"`
	// DayCycles is the period of the diurnal load curve (0 = flat load).
	DayCycles int64 `json:"day_cycles,omitempty"`
	// Curve holds relative load levels spaced evenly over DayCycles,
	// interpolated piecewise-linearly and wrapped (a diurnal profile).
	// Empty = flat. Mean level is normalized away: Rate stays the mean.
	Curve []float64 `json:"curve,omitempty"`
	// Surges are flash crowds layered on the curve.
	Surges []Surge `json:"surges,omitempty"`
	// TracePath names a TRAF1 trace file (pattern "trace" only).
	TracePath string `json:"trace,omitempty"`
}

// Pattern is one registry entry: how to build the closed-loop sources
// and (optionally) a native open-loop process for a Spec.
type Pattern struct {
	// Name is the registry key.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Defaults are the pattern's parameter defaults; Validate rejects
	// Params keys not listed here.
	Defaults map[string]float64
	// Source builds the closed-loop source for one port. May be nil for
	// patterns that only exist as recorded arrivals (trace replay uses
	// the generic adapter instead).
	Source func(s *Spec, port int, rng *RNG) (Source, error)
	// Process builds a native open-loop arrival process. Nil = the
	// generic rate-paced adapter over Source (see openloop.go).
	Process func(s *Spec, sliceCycles int64) (Process, error)
	// Check, if non-nil, validates pattern-specific invariants beyond
	// the generic ones.
	Check func(s *Spec) error
}

var registry = map[string]*Pattern{}

// Register installs a pattern. Duplicate names panic: the registry is
// assembled from init functions and a collision is a programming error.
func Register(p Pattern) {
	if p.Name == "" {
		panic("traffic: Register with empty name")
	}
	if _, dup := registry[p.Name]; dup {
		panic("traffic: duplicate pattern " + p.Name)
	}
	registry[p.Name] = &p
}

// Patterns lists the registered pattern names, sorted.
func Patterns() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// withDefaults fills zero fields; it leaves s.Params untouched (lookup
// goes through param()).
func (s *Spec) withDefaults() {
	if s.Ports == 0 {
		s.Ports = 4
	}
	if s.Size == 0 {
		s.Size = 1024
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Rate == 0 {
		s.Rate = 0.8
	}
}

// param resolves a knob: explicit Params value, else the pattern
// default.
func (s *Spec) param(name string) float64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	if p, ok := registry[s.Pattern]; ok {
		return p.Defaults[name]
	}
	return 0
}

// Validate checks the spec against the registry and the generic
// invariants. It does not mutate the spec.
func (s *Spec) Validate() error {
	pat, ok := registry[s.Pattern]
	if !ok {
		return fmt.Errorf("traffic: unknown pattern %q (have %s)", s.Pattern, strings.Join(Patterns(), ", "))
	}
	if s.Ports < 0 || (s.Ports != 0 && s.Ports < 2) || s.Ports > 1024 {
		return fmt.Errorf("traffic: port count %d out of range [2, 1024]", s.Ports)
	}
	if s.Size != 0 && (s.Size < ip.HeaderBytes || s.Size > 65535) {
		return fmt.Errorf("traffic: packet size %dB out of range [%d, 65535]", s.Size, ip.HeaderBytes)
	}
	if len(s.Sizes) != len(s.Weights) {
		return fmt.Errorf("traffic: %d sizes but %d weights", len(s.Sizes), len(s.Weights))
	}
	var wsum float64
	for i, sz := range s.Sizes {
		if sz < ip.HeaderBytes || sz > 65535 {
			return fmt.Errorf("traffic: size mix entry %dB out of range [%d, 65535]", sz, ip.HeaderBytes)
		}
		if !(s.Weights[i] >= 0) || s.Weights[i] > 1e9 {
			return fmt.Errorf("traffic: weight %v for size %dB out of range [0, 1e9]", s.Weights[i], sz)
		}
		wsum += s.Weights[i]
	}
	if len(s.Sizes) > 0 && wsum <= 0 {
		return fmt.Errorf("traffic: size-mix weights sum to %v; need positive mass", wsum)
	}
	if s.Rate < 0 || s.Rate > 8 {
		return fmt.Errorf("traffic: rate %v words/cycle/port out of range [0, 8]", s.Rate)
	}
	if s.DayCycles < 0 {
		return fmt.Errorf("traffic: negative day length %d", s.DayCycles)
	}
	if len(s.Curve) > 0 && s.DayCycles == 0 {
		return fmt.Errorf("traffic: a load curve needs day_cycles > 0")
	}
	if len(s.Curve) == 1 {
		return fmt.Errorf("traffic: a load curve needs at least 2 points")
	}
	if len(s.Curve) > 4096 {
		return fmt.Errorf("traffic: load curve with %d points (max 4096)", len(s.Curve))
	}
	var csum float64
	for _, lv := range s.Curve {
		if !(lv >= 0) || lv > 1e6 {
			return fmt.Errorf("traffic: curve level %v out of range [0, 1e6]", lv)
		}
		csum += lv
	}
	if len(s.Curve) > 0 && csum <= 0 {
		return fmt.Errorf("traffic: load curve is identically zero")
	}
	if len(s.Surges) > 1024 {
		return fmt.Errorf("traffic: %d surges (max 1024)", len(s.Surges))
	}
	for _, su := range s.Surges {
		if su.At < 0 || su.Dur <= 0 {
			return fmt.Errorf("traffic: surge window [%d, +%d) must have At >= 0, Dur > 0", su.At, su.Dur)
		}
		if !(su.Mult >= 0) || su.Mult > 1e6 {
			return fmt.Errorf("traffic: surge multiplier %v out of range [0, 1e6]", su.Mult)
		}
	}
	for k, v := range s.Params {
		if _, ok := pat.Defaults[k]; !ok {
			known := make([]string, 0, len(pat.Defaults))
			for d := range pat.Defaults {
				known = append(known, d)
			}
			sort.Strings(known)
			return fmt.Errorf("traffic: pattern %s has no parameter %q (have %s)", s.Pattern, k, strings.Join(known, ", "))
		}
		if v != v || v < -1e12 || v > 1e12 {
			return fmt.Errorf("traffic: parameter %s=%v out of range", k, v)
		}
	}
	if pat.Check != nil {
		if err := pat.Check(s); err != nil {
			return err
		}
	}
	return nil
}

// Workload is a compiled Spec.
type Workload struct {
	// Spec is the validated, default-filled spec the workload was built
	// from.
	Spec Spec
	pat  *Pattern
}

// Build validates the spec, fills defaults, and compiles it.
func Build(s Spec) (*Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.withDefaults()
	return &Workload{Spec: s, pat: registry[s.Pattern]}, nil
}

// MustBuild is Build for specs known good at compile time.
func MustBuild(s Spec) *Workload {
	w, err := Build(s)
	if err != nil {
		panic(err)
	}
	return w
}

// Source returns the closed-loop source for one port. Ports are
// independent streams: each gets a seed-forked RNG, so a caller driving
// a subset of ports still sees the canonical streams on those ports.
func (w *Workload) Source(port int) (Source, error) {
	if port < 0 || port >= w.Spec.Ports {
		return nil, fmt.Errorf("traffic: port %d out of range [0, %d)", port, w.Spec.Ports)
	}
	if w.pat.Source == nil {
		// Open-loop-only pattern (flows): adapt the arrival stream,
		// dropping timestamps.
		proc, err := w.OpenLoop(defaultSliceCycles)
		if err != nil {
			return nil, err
		}
		return &processSource{proc: proc, port: port}, nil
	}
	rng := NewRNG(mix64(w.Spec.Seed ^ uint64(port)*0x9e3779b97f4a7c15 + 1))
	src, err := w.pat.Source(&w.Spec, port, rng)
	if err != nil {
		return nil, err
	}
	if len(w.Spec.Sizes) > 0 {
		src = &SizeMix{Inner: src, SizesB: w.Spec.Sizes, Weights: w.Spec.Weights,
			rng: NewRNG(mix64(w.Spec.Seed ^ uint64(port)*0x9e3779b97f4a7c15 + 2))}
	}
	return src, nil
}

// Sources builds every port's closed-loop source.
func (w *Workload) Sources() ([]Source, error) {
	srcs := make([]Source, w.Spec.Ports)
	for p := range srcs {
		var err error
		if srcs[p], err = w.Source(p); err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// OpenLoop returns the workload's open-loop arrival process on the
// given slice length. Patterns with a native process (flows, trace) use
// it; everything else gets the generic rate-paced adapter whose
// arrivals are a pure function of (Spec, slice, port).
func (w *Workload) OpenLoop(sliceCycles int64) (Process, error) {
	if sliceCycles <= 0 {
		return nil, fmt.Errorf("traffic: open-loop slice length must be positive, got %d", sliceCycles)
	}
	if w.pat.Process != nil {
		return w.pat.Process(&w.Spec, sliceCycles)
	}
	return newPacedProcess(w, sliceCycles)
}

// ParseSpecJSON decodes a JSON spec document (unknown fields rejected,
// so a typo fails loudly instead of silently running the default).
func ParseSpecJSON(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("traffic: spec JSON: %w", err)
	}
	return s, nil
}

// LoadSpec reads a spec from a JSON file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("traffic: spec file: %w", err)
	}
	return ParseSpecJSON(data)
}

// ParseSpec parses the CLI shorthand:
//
//	NAME[:key=val,...]     inline pattern spec
//	json:FILE              JSON spec document
//	trace:FILE             TRAF1 trace replay
//	PRESET                 a named preset (see Presets)
//
// Inline keys: ports, size, seed, rate, day (DayCycles); sizes and
// weights take /-separated lists (sizes=64/1024,weights=9/1); curve
// takes /-separated levels (curve=0.2/1/0.4). Any other key must be a
// parameter of the named pattern.
func ParseSpec(text string) (Spec, error) {
	name, rest, hasRest := strings.Cut(text, ":")
	switch name {
	case "json":
		if rest == "" {
			return Spec{}, fmt.Errorf("traffic: json spec needs a file: json:FILE")
		}
		return LoadSpec(rest)
	case "trace":
		if rest == "" {
			return Spec{}, fmt.Errorf("traffic: trace spec needs a file: trace:FILE")
		}
		return Spec{Pattern: "trace", TracePath: rest}, nil
	}
	if preset, ok := Presets()[text]; ok {
		return preset, nil
	}
	s := Spec{Pattern: name}
	if !hasRest {
		return s, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("traffic: bad spec term %q (want key=val)", kv)
		}
		if err := s.setKey(key, val); err != nil {
			return Spec{}, err
		}
	}
	return s, nil
}

func (s *Spec) setKey(key, val string) error {
	badNum := func(err error) error {
		return fmt.Errorf("traffic: spec key %s=%q: %v", key, val, err)
	}
	switch key {
	case "ports", "size", "day":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return badNum(err)
		}
		switch key {
		case "ports":
			s.Ports = int(n)
		case "size":
			s.Size = int(n)
		case "day":
			s.DayCycles = n
		}
	case "seed":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return badNum(err)
		}
		s.Seed = n
	case "rate":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return badNum(err)
		}
		s.Rate = f
	case "sizes":
		for _, t := range strings.Split(val, "/") {
			n, err := strconv.ParseInt(t, 10, 32)
			if err != nil {
				return badNum(err)
			}
			s.Sizes = append(s.Sizes, int(n))
		}
	case "weights", "curve":
		var out []float64
		for _, t := range strings.Split(val, "/") {
			f, err := strconv.ParseFloat(t, 64)
			if err != nil {
				return badNum(err)
			}
			out = append(out, f)
		}
		if key == "weights" {
			s.Weights = out
		} else {
			s.Curve = out
		}
	default:
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("traffic: spec key %q is not a field or numeric parameter", key)
		}
		if s.Params == nil {
			s.Params = map[string]float64{}
		}
		s.Params[key] = f
	}
	return nil
}

// String renders the spec back in the inline shorthand (canonical key
// order), for logs and table captions.
func joinInts(v []int) string {
	parts := make([]string, len(v))
	for i, n := range v {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, "/")
}

func joinFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, "/")
}

func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Pattern)
	var terms []string
	add := func(format string, args ...any) { terms = append(terms, fmt.Sprintf(format, args...)) }
	if s.Ports != 0 {
		add("ports=%d", s.Ports)
	}
	if s.Size != 0 {
		add("size=%d", s.Size)
	}
	if s.Seed != 0 {
		add("seed=%d", s.Seed)
	}
	if s.Rate != 0 {
		add("rate=%g", s.Rate)
	}
	if s.DayCycles != 0 {
		add("day=%d", s.DayCycles)
	}
	if len(s.Sizes) > 0 {
		add("sizes=%s", joinInts(s.Sizes))
	}
	if len(s.Weights) > 0 {
		add("weights=%s", joinFloats(s.Weights))
	}
	if len(s.Curve) > 0 {
		add("curve=%s", joinFloats(s.Curve))
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		add("%s=%g", k, s.Params[k])
	}
	if s.TracePath != "" {
		add("trace=%s", s.TracePath)
	}
	if len(terms) > 0 {
		b.WriteByte(':')
		b.WriteString(strings.Join(terms, ","))
	}
	return b.String()
}
