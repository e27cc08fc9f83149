// Package trace records per-tile, per-cycle processor activity and renders
// the utilization strips of the paper's Figure 7-3 ("gray means blocked on
// transmit, receive, or cache miss") as ASCII art and CSV.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/raw"
)

// Recorder implements raw.Tracer over a bounded cycle window.
type Recorder struct {
	// Start and End bound the recorded window [Start, End).
	Start, End int64
	tiles      int
	// states[tile][cycle-Start]
	states [][]raw.TileState
}

// NewRecorder records cycles [start, end) for a chip with tiles tiles.
func NewRecorder(tiles int, start, end int64) *Recorder {
	r := &Recorder{Start: start, End: end, tiles: tiles}
	r.states = make([][]raw.TileState, tiles)
	for i := range r.states {
		r.states[i] = make([]raw.TileState, end-start)
	}
	return r
}

// Record implements raw.Tracer.
func (r *Recorder) Record(cycle int64, tile int, state raw.TileState) {
	if cycle < r.Start || cycle >= r.End {
		return
	}
	r.states[tile][cycle-r.Start] = state
}

// NextDue implements raw.Due: the recorder must see exactly the cycles
// of [Start, End) individually stepped.
func (r *Recorder) NextDue(cycle int64) int64 {
	if cycle >= r.End {
		return -1
	}
	return max(cycle, r.Start)
}

// Utilization returns the fraction of recorded cycles tile spent running.
func (r *Recorder) Utilization(tile int) float64 {
	run := 0
	for _, s := range r.states[tile] {
		if s == raw.StateRun {
			run++
		}
	}
	if len(r.states[tile]) == 0 {
		return 0
	}
	return float64(run) / float64(len(r.states[tile]))
}

// BlockedFraction returns the fraction of recorded cycles tile spent
// blocked on transmit, receive, or cache miss — Figure 7-3's gray.
func (r *Recorder) BlockedFraction(tile int) float64 {
	blocked := 0
	for _, s := range r.states[tile] {
		if s.Blocked() {
			blocked++
		}
	}
	if len(r.states[tile]) == 0 {
		return 0
	}
	return float64(blocked) / float64(len(r.states[tile]))
}

// glyph maps a state to its strip character: running is solid, blocked is
// the paper's gray, idle is blank.
func glyph(s raw.TileState) byte {
	switch s {
	case raw.StateRun:
		return '#'
	case raw.StateStallSend, raw.StateStallRecv, raw.StateStallCache:
		return '.'
	default:
		return ' '
	}
}

// ASCII renders the Figure 7-3 strip chart: one row per tile (in the
// order given, typically 0..15), time left to right, downsampled by bin
// cycles per character (majority state per bin, blocked winning ties).
func (r *Recorder) ASCII(tiles []int, bin int) string {
	if bin < 1 {
		bin = 1
	}
	var b strings.Builder
	n := len(r.states[0])
	fmt.Fprintf(&b, "cycles %d..%d, %d cycle(s)/char: '#'=run '.'=blocked(gray) ' '=idle\n",
		r.Start, r.End, bin)
	for _, tile := range tiles {
		fmt.Fprintf(&b, "%2d |", tile)
		for off := 0; off < n; off += bin {
			end := off + bin
			if end > n {
				end = n
			}
			var run, blocked, idle int
			for _, s := range r.states[tile][off:end] {
				switch {
				case s == raw.StateRun:
					run++
				case s.Blocked():
					blocked++
				default:
					idle++
				}
			}
			switch {
			case blocked >= run && blocked >= idle && blocked > 0:
				b.WriteByte('.')
			case run >= idle && run > 0:
				b.WriteByte('#')
			default:
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, "| run %4.0f%% gray %4.0f%%\n",
			100*r.Utilization(tile), 100*r.BlockedFraction(tile))
	}
	return b.String()
}

// CSV renders the raw strip as comma-separated state names, one row per
// tile, for external plotting.
func (r *Recorder) CSV(tiles []int) string {
	var b strings.Builder
	b.WriteString("tile")
	for c := r.Start; c < r.End; c++ {
		fmt.Fprintf(&b, ",c%d", c)
	}
	b.WriteByte('\n')
	for _, tile := range tiles {
		fmt.Fprintf(&b, "%d", tile)
		for _, s := range r.states[tile] {
			b.WriteByte(',')
			b.WriteString(s.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var _ raw.Tracer = (*Recorder)(nil)

// Summary renders a per-tile run/gray/idle percentage table with an
// optional role label per tile.
func (r *Recorder) Summary(tiles []int, label func(tile int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-14s %6s %6s %6s\n", "tile", "role", "run%", "gray%", "idle%")
	for _, tile := range tiles {
		run := r.Utilization(tile)
		gray := r.BlockedFraction(tile)
		idle := 1 - run - gray
		name := ""
		if label != nil {
			name = label(tile)
		}
		fmt.Fprintf(&b, "%-4d %-14s %6.1f %6.1f %6.1f\n", tile, name, 100*run, 100*gray, 100*idle)
	}
	return b.String()
}
