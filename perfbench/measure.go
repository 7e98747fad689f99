package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/payloadpark/payloadpark/internal/scenario"
)

// setup_s is the median of set-up-only runs: at least minSetupReps,
// repeated until setupTime has passed.
const (
	minSetupReps = 15
	setupTime    = time.Second
)

// minTimedReps is the least number of timed runs, however long each is.
const minTimedReps = 3

// refHostSpeed is hostSpeed on the 2-vCPU VM the first numbers were
// taken on, at its usual speed. delivered_pps and setup_s are scaled to
// it: that VM's speed drifts by up to 50% over minutes, and the scaled
// figures spread about half as much as the raw ones (README.md).
const refHostSpeed = 250e3

// speedTime is how long one hostSpeed sample hashes.
const speedTime = 100 * time.Millisecond

var speedBuf [4096]byte

// sample is one run of a workload with its host-side cost.
type sample struct {
	rep *scenario.Report
	// speed is the hostSpeed sample taken right after the run.
	speed float64
	// wallNs is the run's timed span: the whole scenario.Run on the
	// simulator, live.Result.ElapsedNs (send start to settled) on sockets.
	wallNs   int64
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
}

// pps is the run's delivered packets per host-second.
func (s sample) pps() float64 {
	return float64(s.rep.Delivered) / (float64(s.wallNs) / 1e9)
}

// runOnce runs the scenario and records its wall time and heap
// allocation deltas.
func runOnce(ctx context.Context, s scenario.Scenario) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := scenario.Run(ctx, s)
	wall := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", s.Name, err)
	}
	if rep.Live != nil {
		wall = rep.Live.ElapsedNs
	}
	if rep.Delivered == 0 || wall <= 0 {
		return sample{}, fmt.Errorf("%s: delivered %d packets in %d ns", s.Name, rep.Delivered, wall)
	}
	return sample{
		rep:      rep,
		wallNs:   wall,
		mallocs:  m1.Mallocs - m0.Mallocs,
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
	}, nil
}

// measureSetup returns the median set-up time of the set-up-only runs,
// in seconds, and on the live fabric the median ElapsedNs of its
// one-frame runs: the settle poll every live run ends with. A simulated
// set-up is the whole near-zero-window run. A live set-up is the
// one-frame run's wall time minus its ElapsedNs, which starts after
// socket bring-up and ends after the settle poll: frame generation,
// bring-up and teardown, without the one frame's send and settle.
func measureSetup(ctx context.Context, w workload, seed int64) (setupS, tailNs float64, err error) {
	var times, tails []float64
	for begin := time.Now(); len(times) < minSetupReps || time.Since(begin) < setupTime; {
		// Start every set-up from a collected heap, so garbage left by the
		// previous one does not land on it.
		runtime.GC()
		start := time.Now()
		rep, err := scenario.Run(ctx, w.setup(seed))
		if err != nil {
			return 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		wall := time.Since(start)
		if rep.Live != nil {
			tails = append(tails, float64(rep.Live.ElapsedNs))
			wall -= time.Duration(rep.Live.ElapsedNs)
		}
		times = append(times, wall.Seconds())
	}
	if len(tails) > 0 {
		tailNs = median(tails)
	}
	return median(times), tailNs, nil
}

// timedRuns repeats the workload until budget has passed (and at least
// minTimedReps times).
func timedRuns(ctx context.Context, w workload, seed int64, budget time.Duration) ([]sample, error) {
	var out []sample
	start := time.Now()
	for len(out) < minTimedReps || time.Since(start) < budget {
		s, err := runOnce(ctx, w.build(seed))
		if err != nil {
			return nil, err
		}
		s.speed = hostSpeed()
		out = append(out, s)
	}
	return out, nil
}

// hostSpeed measures how fast the host does fixed work right now:
// SHA-256 hashes of a 4 KiB buffer per second over speedTime, on one
// goroutine, after a forced GC so that no collection of the workload's
// garbage runs beside it.
func hostSpeed() float64 {
	runtime.GC()
	start := time.Now()
	n := 0
	for time.Since(start) < speedTime {
		for i := 0; i < 64; i++ {
			sum := sha256.Sum256(speedBuf[:])
			speedBuf[0] = sum[0]
		}
		n += 64
	}
	return float64(n) / time.Since(start).Seconds()
}

// endToEndMetrics reduces the timed runs to the end-to-end metrics.
// speed is the median hostSpeed over the runs; the timed figures are
// scaled from it to refHostSpeed.
func endToEndMetrics(runs []sample, setupS, speed float64) []value {
	pps := make([]float64, len(runs))
	var delivered, mallocs, allocB uint64
	for i, r := range runs {
		pps[i] = r.pps()
		delivered += r.rep.Delivered
		mallocs += r.mallocs
		allocB += r.allocB
	}
	scale := refHostSpeed / speed
	return []value{
		{"delivered_pps", median(pps) * scale},
		{"setup_s", setupS / scale},
		{"allocs_per_pkt", float64(mallocs) / float64(delivered)},
		{"alloc_bytes_per_pkt", float64(allocB) / float64(delivered)},
		{"peak_rss_mb", peakRSSMB()},
	}
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates the q-quantile of xs linearly between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
