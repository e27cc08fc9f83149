package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// segments is how many equal timed segments an episode splits into; the
// host-time metrics are medians over segments.
const segments = 16

// segment is one timed stretch of simulation, with the calibration
// kernel's times averaged over the runs just before, within and just after
// it.
type segment struct {
	cycles        int64
	wallNs, cpuNs float64
	calWallNs     float64
	calCPUNs      float64
	traced        bool
}

// wallPerCycle and cpuPerCycle are the segment's host ns per simulated
// cycle, rescaled to the nominal host (see calib.go); rawPerCycle is the
// wall time as measured.
func (s segment) wallPerCycle() float64 {
	return s.wallNs / float64(s.cycles) * nominalCalibNs / s.calWallNs
}

func (s segment) cpuPerCycle() float64 {
	return s.cpuNs / float64(s.cycles) * nominalCalibNs / s.calCPUNs
}

func (s segment) rawPerCycle() float64 { return s.wallNs / float64(s.cycles) }

// meter times an episode's segments and, when tr is set, records spans.
type meter struct {
	tr *tracer

	segs    []segment
	wall0   time.Time
	cpu0    time.Duration
	segSpan int32
	// segName names the segment spans, the roots of the self-time summary.
	segName   string
	segTraced bool
	// calWall and calCPU are the latest calibration's times; paused is the
	// wall time all calibrations have taken, for callers that time across
	// segment boundaries.
	calWall, calCPU float64
	paused          time.Duration
	// The open segment's calibrations so far, the one before it included:
	// their summed times and count, and the wall and CPU time the ones
	// inside it took.
	segCalWall, segCalCPU   float64
	segCals                 int
	segPaused, segPausedCPU time.Duration
	mem0                    runtime.MemStats
	memDelta                goStats
	// rssMB is the RSS retained after the timed phase: measured once a
	// forced collection has returned free memory to the OS, so it does not
	// depend on when the collector happened to run.
	rssMB float64
}

// goStats is the Go runtime's work over an episode's timed phase, and the
// process's peak RSS at its end.
type goStats struct {
	allocMB   float64
	gcCycles  float64
	gcPauseMs float64
	peakRSSMB float64
}

// cpuTime is the process's user+system CPU time, every thread included.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// startTimed marks the start of the timed phase (after warm-up).
func (m *meter) startTimed() { runtime.ReadMemStats(&m.mem0) }

// stopTimed marks the end of the timed phase.
func (m *meter) stopTimed() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.memDelta = goStats{
		allocMB:   float64(ms.TotalAlloc-m.mem0.TotalAlloc) / 1e6,
		gcCycles:  float64(ms.NumGC - m.mem0.NumGC),
		gcPauseMs: float64(ms.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6,
		peakRSSMB: procStatusMB("VmHWM"),
	}
	debug.FreeOSMemory()
	m.rssMB = procStatusMB("VmRSS")
}

func (m *meter) calibrate() {
	t0 := time.Now()
	m.calWall, m.calCPU = calibrate()
	m.paused += time.Since(t0)
	m.segCalWall += m.calWall
	m.segCalCPU += m.calCPU
	m.segCals++
}

// beginSegment opens a timed segment whose span is named name. With a
// tracer, odd segments are traced and even ones not, so the two kinds
// interleave and host-load drift affects both alike.
func (m *meter) beginSegment(name string) {
	if len(m.segs) == 0 {
		m.calibrate()
	}
	m.segCalWall, m.segCalCPU, m.segCals = m.calWall, m.calCPU, 1
	m.segPaused, m.segPausedCPU = 0, 0
	m.segTraced = m.tr != nil && len(m.segs)%2 == 1
	m.tr.pause(!m.segTraced)
	m.segSpan, m.segName = m.tr.begin(name), name
	m.cpu0 = cpuTime()
	m.wall0 = time.Now()
}

// calibrateWithin runs the calibration kernel inside the open segment, for
// segments too long for the runs at their ends to follow the host's load.
// The segment's times leave it out; its span belongs to the bench layer.
func (m *meter) calibrateWithin() {
	id := m.tr.begin("bench.calibrate")
	t0, c0 := time.Now(), cpuTime()
	m.calibrate()
	m.segPaused += time.Since(t0)
	m.segPausedCPU += cpuTime() - c0
	m.tr.end(id)
}

// endSegment closes the open segment, which simulated cycles cycles. Its
// calibration is the mean of the runs before, within and after it.
func (m *meter) endSegment(cycles int64) {
	wall := time.Since(m.wall0) - m.segPaused
	cpu := cpuTime() - m.cpu0 - m.segPausedCPU
	m.tr.end(m.segSpan)
	m.tr.pause(false)
	m.calibrate()
	n := float64(m.segCals)
	m.segs = append(m.segs, segment{
		cycles: cycles, wallNs: float64(wall), cpuNs: float64(cpu),
		calWallNs: m.segCalWall / n, calCPUNs: m.segCalCPU / n,
		traced: m.segTraced,
	})
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// procStatusMB reads a kB field of /proc/self/status, such as VmRSS or
// VmHWM, in MB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostInfo is the metadata every output records.
type hostInfo struct {
	GoVersion  string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	CPU        string           `json:"cpu"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Commit     string           `json:"commit"`
	Seed       uint64           `json:"seed"`
	Cycles     map[string]int64 `json:"cycles"`
}

func newHostInfo(seed uint64, w *workload) hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Seed:       seed,
		Cycles: map[string]int64{
			"warmup":  w.warmup,
			"segment": w.segment,
			"timed":   w.segment * segments,
		},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
