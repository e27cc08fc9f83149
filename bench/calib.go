package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-time calibration. On a shared host, other tenants slow the CPU by
// tens of percent for minutes at a time, which swamps the differences a
// regression gate must resolve. Every timed segment and every setup is
// therefore bracketed by a fixed calibration kernel, and the end-to-end
// host times are rescaled by nominalCalibNs over the kernel's measured
// time: a host-wide slowdown stretches both and cancels. The kernel is
// the benchmark's own code, so a change to the simulator cannot move it.
//
// The kernel is a small bytecode interpreter: a switch over six opcodes
// that add, shift, load and store into 64 KB and branch on data, stepping
// a fixed random program. Like the simulator, it is bound by dispatch
// through an unpredictable indirect branch and by L1/L2 traffic, so
// contention for the core slows both alike. Timed in alternation with
// router runs for eight minutes on a busy shared host, the router's time
// per 25 s window varied a third to a fifth as much after calibration with
// this kernel as with an 8 MB pointer chase, which the host's load slowed
// only about half as much as the simulator.

// nominalCalibNs is the kernel's wall time on an unloaded host of the
// kind the baselines were recorded on (2-vCPU Intel Xeon at 2.1 GHz), so
// calibrated times read as nanoseconds on that host.
const nominalCalibNs = 2.8e6

const (
	calibSteps = 1 << 21
	calibWords = 1 << 14 // 64 KB of uint32
	calibOps   = 6
)

// calibProg is the kernel's program and calibInit the memory every run
// starts from, so every run executes the same instructions. Neither holds
// pointers, so the garbage collector neither scans them nor paces by them.
var (
	calibProg [4096]uint8
	calibInit [calibWords]uint32
	calibMem  [calibWords]uint32
)

func init() {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range calibProg {
		calibProg[i] = uint8(next() % calibOps)
	}
	for i := range calibInit {
		calibInit[i] = uint32(next())
	}
}

var calibSink uint32

// calibrate runs the kernel and returns its wall and CPU nanoseconds. The
// kernel runs locked to its OS thread and its CPU time is that thread's
// alone, so collector workers or other goroutines running meanwhile do
// not inflate it.
func calibrate() (wallNs, cpuNs float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPUTime(), time.Now()
	calibMem = calibInit
	var a, b uint32 = 1, 7
	pc := 0
	for i := 0; i < calibSteps; i++ {
		switch calibProg[pc] {
		case 0:
			a += b
		case 1:
			b = calibMem[a%calibWords]
		case 2:
			calibMem[b%calibWords] = a
		case 3:
			a ^= a << 3
		case 4:
			if a&1 == 0 {
				pc = int(b % uint32(len(calibProg)))
				continue
			}
		case 5:
			b += a >> 2
		}
		pc = (pc + 1) % len(calibProg)
	}
	calibSink = a + b
	return float64(time.Since(t0)), float64(threadCPUTime() - c0)
}

// Linux's CPU-time clocks, which the syscall package does not name.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPUTime is the calling thread's user+system CPU time.
func threadCPUTime() time.Duration { return cpuClock(clockThreadCPUTime) }

// cpuClock reads a CPU-time clock. Unlike getrusage, whose times advance
// only at scheduler ticks (10 ms at the common HZ=100, longer than the
// calibration kernel runs), these clocks include the running thread's
// current slice to the nanosecond.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Both clocks exist on every Linux since 2.6.12, and ts is valid.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
