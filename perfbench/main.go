// Command perfbench is the repository's benchmark. It runs one workload
// (testbed-fig7, fabric-16x8 or live-chain) through scenario.Run for a
// wall-clock budget, checks the outputs, and prints every metric by name
// and unit, then one JSON result line. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it makes a separate traced run and
// prints the per-layer metrics, the CPU shares by layer and the tracing
// overhead. Any correctness violation makes it exit non-zero.
//
// Build and run it from the repository root with:
//
//	bash perfbench/run.sh --workload testbed-fig7 --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/payloadpark/payloadpark/internal/scenario"
)

// value is one measured metric.
type value struct {
	name string
	v    float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: testbed-fig7, fabric-16x8 or live-chain")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "wall-clock seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name, *seed)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload testbed-fig7|fabric-16x8|live-chain --seed N --seconds N --trace 0|1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	ctx := context.Background()

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "# workload: %s\n", w.why)
	fmt.Fprintln(stdout, "# live-chain traffic crosses the host's loopback interface, not a real link.")
	fmt.Fprintln(stdout, "# the model has no hardware reference, so no accuracy-error figure is given.")

	g := &gate{}
	var (
		vals              []value
		defs              []metricDef
		attempted, failed uint64
		err               error
	)
	if *trace == 0 {
		defs = endToEnd
		vals, attempted, failed, err = endToEndRun(ctx, w, *seed, budget, g, stdout)
	} else {
		defs = perLayer()
		vals, attempted, failed, err = perLayerRun(ctx, w, *seed, budget, g, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := result(defs, vals, g.ok(), attempted, failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, v := range g.violations {
		fmt.Fprintf(stderr, "perfbench: VIOLATION: %s\n", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !g.ok() {
		return 1
	}
	return 0
}

// result builds the JSON result, checking that vals holds exactly the
// metrics of defs, each a finite number.
func result(defs []metricDef, vals []value, correct bool, attempted, failed uint64) (*jsonResult, error) {
	res := &jsonResult{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	for _, v := range vals {
		unit, ok := units[v.name]
		if !ok {
			return nil, fmt.Errorf("metric %q is not in the catalog", v.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("metric %s is %v", v.name, v.v)
		}
		if _, dup := res.Metrics[v.name]; dup {
			return nil, fmt.Errorf("metric %s measured twice", v.name)
		}
		res.Metrics[v.name] = jsonMetric{Value: v.v, Unit: unit}
	}
	if len(res.Metrics) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, the catalog lists %d", len(res.Metrics), len(defs))
	}
	if attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

// endToEndRun measures set-up, then the timed runs, then checks them.
func endToEndRun(ctx context.Context, w workload, seed int64, budget time.Duration, g *gate, stdout io.Writer) ([]value, uint64, uint64, error) {
	setupS, tailNs, err := measureSetup(ctx, w, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	runs, err := timedRuns(ctx, w, seed, budget)
	if err != nil {
		return nil, 0, 0, err
	}
	speeds := make([]float64, len(runs))
	for i, r := range runs {
		speeds[i] = r.speed
	}
	speed := median(speeds)
	vals := endToEndMetrics(runs, setupS, speed)

	var attempted, failed uint64
	var loss liveLoss
	wall := make([]float64, len(runs))
	for i, r := range runs {
		a, f := outcome(r.rep)
		attempted += a
		failed += f
		wall[i] = float64(r.wallNs)
		if w.live {
			loss.add(g.checkLive(r.rep.Live))
			continue
		}
		if i > 0 {
			g.sameReport(fmt.Sprintf("timed run %d", i), runs[0].rep, r.rep)
		}
		g.checkFabricSlots(r.rep)
	}
	fmt.Fprintf(stdout, "# %d timed runs, median %.3f s each; unscaled delivered_pps per run:", len(runs), median(wall)/1e9)
	for _, r := range runs {
		fmt.Fprintf(stdout, " %.0f", r.pps())
	}
	fmt.Fprintf(stdout, "\n# host speed %.6g SHA-256 4 KiB hashes/s (median of %d samples, reference %.6g); unscaled setup_s %.6g s\n",
		speed, len(runs), refHostSpeed, setupS)
	if w.live {
		fmt.Fprintf(stdout, "# delivered_pps is timed over live.Result.ElapsedNs, which includes the fabric's settle poll: ~%.1f ms, %.1f%% of the median run\n",
			tailNs/1e6, 100*tailNs/median(wall))
		fmt.Fprintf(stdout, "# unaccounted frames: %d (loopback socket drops %d, switch drops/evictions %d)\n",
			loss.unaccounted, loss.socket, loss.evicted)
		return vals, attempted, failed, nil
	}
	// One observed run per invocation: serial where the workload is
	// partitioned, so it also checks the partitioned runs against the
	// serial reference timeline, and with a metrics snapshot, which is
	// where the testbed reports slot occupancy.
	ref := w.build(seed)
	ref.Observe.Metrics = true
	ref.Opts.Partitions = 0
	rep, err := scenario.Run(ctx, ref)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s serial reference: %w", w.name, err)
	}
	g.sameReport("serial observed run", runs[0].rep, rep)
	g.checkSnapshotSlots(rep.Metrics)
	fmt.Fprintf(stdout, "# modelled: goodput %.6g Gbps, mean latency %.6g us, unintended drops %.4g%%, premature evictions %d\n",
		rep.GoodputGbps, rep.AvgLatencyUs, 100*rep.UnintendedDropRate, rep.Premature)
	return vals, attempted, failed, nil
}

// perLayerRun makes the traced runs and the ladder.
func perLayerRun(ctx context.Context, w workload, seed int64, budget time.Duration, g *gate, stdout io.Writer) ([]value, uint64, uint64, error) {
	tr, err := runTraced(ctx, w, seed, budget, g)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(stdout, "# traced runs: %d; dark %.6g pkt/s, traced %.6g pkt/s\n", len(tr.runs), tr.darkPPS, tr.tracedPPS)
	load, err := measureEngineLoad(ctx, w, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	if load.partitions > 0 {
		fmt.Fprintf(stdout, "# sim.engine rung: measured %.6g pending events per engine (%d engines), mean delay %.6g ns\n",
			load.depth, load.partitions, load.delayNs)
	} else {
		fmt.Fprintln(stdout, "# sim.engine rung: no engine in this workload; one event at 1 ns delays")
	}
	l := newLadder(w, seed, load)
	rungStats, err := l.run()
	if err != nil {
		return nil, 0, 0, err
	}
	return perLayerValues(tr, rungStats), tr.attempted, tr.failed, nil
}

// cpuModel names the host CPU from /proc/cpuinfo, or the architecture
// where that is unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
