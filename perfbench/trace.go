package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// timedSource is the traced testbed's Traffic.Source: the generator the
// testbed would build itself, with the time spent in it accumulated.
type timedSource struct {
	g    *trafficgen.Generator
	busy *time.Duration
}

func (s timedSource) Next() *packet.Packet {
	t := time.Now()
	p := s.g.Next()
	*s.busy += time.Since(t)
	return p
}

func (s timedSource) Recycle(p *packet.Packet) {
	t := time.Now()
	s.g.Recycle(p)
	*s.busy += time.Since(t)
}

// timedNF delegates to an NF and accumulates the time spent in it.
type timedNF struct {
	nf.NF
	busy *time.Duration
}

func (n timedNF) Process(p *packet.Packet) (nf.Verdict, uint64) {
	t := time.Now()
	v, c := n.NF.Process(p)
	*n.busy += time.Since(t)
	return v, c
}

// traced is the outcome of the traced runs.
type traced struct {
	runs               []sample
	srcBusy, nfBusy    time.Duration
	tracedWallNs       int64
	shares             map[string]float64
	gcCPUFrac          float64
	attempted, failed  uint64
	lastRep            *scenario.Report
	darkPPS, tracedPPS float64
	liveLoss           liveLoss
}

// tracedScenario arms the observability snapshot and, on the testbed
// (the only topology with Source and Chain hooks), the timing delegates.
func tracedScenario(w workload, seed int64, tr *traced) (scenario.Scenario, error) {
	s := w.build(seed)
	s.Observe.Metrics = true
	if _, ok := s.Topology.(scenario.Testbed); !ok {
		return s, nil
	}
	chain, err := fwNATLB(func(n nf.NF) nf.NF { return timedNF{n, &tr.nfBusy} })
	if err != nil {
		return s, err
	}
	s.Chain = func() *nf.Chain { return chain }
	s.Traffic.Source = func() trafficgen.Source {
		return timedSource{g: trafficgen.New(w.stream), busy: &tr.srcBusy}
	}
	return s, nil
}

// cpuSeconds reads the runtime's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runTraced makes one dark run, then traced runs (observability
// snapshot, timing delegates, CPU profile) until budget has passed, and
// checks every traced Report against the dark one.
func runTraced(ctx context.Context, w workload, seed int64, budget time.Duration, g *gate) (*traced, error) {
	start := time.Now()
	dark, err := runOnce(ctx, w.build(seed))
	if err != nil {
		return nil, err
	}
	tr := &traced{darkPPS: dark.pps()}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	gc0, cpu0 := cpuSeconds()
	for len(tr.runs) == 0 || time.Since(start) < budget {
		s, err := tracedScenario(w, seed, tr)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		r, err := runOnce(ctx, s)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		tr.runs = append(tr.runs, r)
	}
	gc1, cpu1 := cpuSeconds()
	pprof.StopCPUProfile()
	if cpu1 > cpu0 {
		tr.gcCPUFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if tr.shares, err = cpuShares(p); err != nil {
		return nil, err
	}

	pps := make([]float64, len(tr.runs))
	for i, r := range tr.runs {
		pps[i] = r.pps()
		tr.tracedWallNs += r.wallNs
		if w.live {
			tr.liveLoss.add(g.checkLive(r.rep.Live))
		} else {
			g.sameReport(fmt.Sprintf("traced run %d", i), dark.rep, r.rep)
			g.checkSnapshotSlots(r.rep.Metrics)
		}
		a, f := outcome(r.rep)
		tr.attempted += a
		tr.failed += f
	}
	tr.tracedPPS = median(pps)
	tr.lastRep = tr.runs[len(tr.runs)-1].rep
	return tr, nil
}

// snapshotIndex sums counters, gauges and histograms of a snapshot by
// metric name without labels.
type snapshotIndex struct {
	counters, gauges map[string]float64
	histSum, histN   map[string]float64
	countersPerName  map[string]int
}

func indexSnapshot(s *obs.Snapshot) snapshotIndex {
	ix := snapshotIndex{
		counters: map[string]float64{}, gauges: map[string]float64{},
		histSum: map[string]float64{}, histN: map[string]float64{},
		countersPerName: map[string]int{},
	}
	if s == nil {
		return ix
	}
	base := func(n string) string {
		if i := strings.IndexByte(n, '{'); i >= 0 {
			return n[:i]
		}
		return n
	}
	for _, c := range s.Counters {
		ix.counters[base(c.Name)] += float64(c.Value)
		ix.countersPerName[base(c.Name)]++
	}
	for _, g := range s.Gauges {
		ix.gauges[base(g.Name)] += g.Value
	}
	for _, h := range s.Histograms {
		ix.histSum[base(h.Name)] += float64(h.Sum)
		ix.histN[base(h.Name)] += float64(h.Count)
	}
	return ix
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues assembles every per-layer metric from the traced runs
// and the ladder.
func perLayerValues(tr *traced, ladder map[string]rungStats) []value {
	var out []value
	for _, r := range rungs {
		st := ladder[r]
		out = append(out,
			value{r + "_ns", st.medianNs},
			value{r + "_p99_ns", st.p99Ns},
			value{r + "_allocs", st.allocs},
			value{r + "_bytes", st.bytes},
		)
	}

	rep := tr.lastRep
	ix := indexSnapshot(rep.Metrics)
	delivered := float64(rep.Delivered)
	var goodput, latency, dropFrac, splitFrac, mergeRatio, premature float64
	if rep.Live == nil {
		goodput, latency, dropFrac = rep.GoodputGbps, rep.AvgLatencyUs, rep.UnintendedDropRate
		splits := ix.counters["pp_park_splits_total"]
		splitFrac = ratio(splits, splits+ix.counters["pp_park_small_payload_skips_total"]+
			ix.counters["pp_park_occupied_skips_total"]+ix.counters["pp_park_demoted_skips_total"])
		mergeRatio = ratio(ix.counters["pp_park_merges_total"], splits)
		premature = ix.counters["pp_park_premature_evictions_total"]
	} else {
		c := rep.Live.Counters
		splits := float64(c.Splits)
		splitFrac = ratio(splits, splits+float64(c.SmallPayloadSkips+c.OccupiedSkips+c.DemotedSkips))
		mergeRatio = ratio(float64(c.Merges), splits)
		premature = float64(c.PrematureEvictions)
	}
	partitions := float64(ix.countersPerName["pp_engine_events_total"])
	last := tr.runs[len(tr.runs)-1]
	rx, tx := "pp_live_rx_burst_frames", "pp_live_tx_batch_frames"
	var gcCycles uint32
	for _, r := range tr.runs {
		gcCycles += r.gcCycles
	}
	out = append(out,
		value{"sim.goodput_gbps", goodput},
		value{"sim.latency_avg_us", latency},
		value{"sim.events_per_pkt", ratio(ix.counters["pp_engine_events_total"], delivered)},
		value{"sim.barrier_stall_frac", ratio(ix.counters["pp_barrier_stall_ns_total"], float64(last.wallNs)*partitions)},
		value{"sim.cross_msgs_per_pkt", ratio(ix.counters["pp_barrier_cross_messages_total"], delivered)},
		value{"sim.drop_frac", dropFrac},
		value{"core.split_frac", splitFrac},
		value{"core.merge_ratio", mergeRatio},
		value{"core.premature", premature},
		value{"live.rx_burst_mean", ratio(ix.histSum[rx], ix.histN[rx])},
		value{"live.tx_batch_mean", ratio(ix.histSum[tx], ix.histN[tx])},
		value{"live.errors", ix.counters["pp_live_errors_total"]},
		value{"live.lost_socket", float64(tr.liveLoss.socket)},
		value{"live.lost_evicted", float64(tr.liveLoss.evicted)},
		value{"wire.frames_per_syscall", ratio(ix.histSum[rx]+ix.histSum[tx], ix.histN[rx]+ix.histN[tx])},
		value{"runtime.gc_cpu_frac", tr.gcCPUFrac},
		value{"runtime.gc_cycles", float64(gcCycles) / float64(len(tr.runs))},
		value{"trafficgen.busy_frac", ratio(float64(tr.srcBusy), float64(tr.tracedWallNs))},
		value{"nf.busy_frac", ratio(float64(tr.nfBusy), float64(tr.tracedWallNs))},
		value{"trace.overhead_frac", 1 - tr.tracedPPS/tr.darkPPS},
	)
	for _, row := range cpuRows {
		out = append(out, value{"cpu." + row, tr.shares[row]})
	}
	return out
}
