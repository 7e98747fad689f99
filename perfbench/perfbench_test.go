package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// TestProfileDecoderOwnProfile records a CPU profile of packet
// serialisation and checks that the decoder reads it and folds the time
// onto the packet layer.
func TestProfileDecoderOwnProfile(t *testing.T) {
	p := packet.NewBuilder(sim.MACGen, sim.MACNF).UDP(packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}, 1400, 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 0, 2048)
	for start := time.Now(); time.Since(start) < time.Second; {
		for i := 0; i < 1000; i++ {
			out = p.AppendSerialize(out[:0])
		}
	}
	pprof.StopCPUProfile()

	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, name := range prof.functions {
		if name == internalPath+"packet.(*Packet).AppendSerialize" {
			found = true
		}
	}
	if !found {
		t.Fatal("AppendSerialize missing from the decoded function table")
	}
	shares, err := cpuShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	// Under the race detector most samples land in its external code,
	// which has no Go frames; of the module's rows, packet must lead.
	for row, v := range shares {
		if row != "packet" && !strings.HasPrefix(row, "runtime") && v >= shares["packet"] {
			t.Errorf("row %s has %.3f of a serialisation loop, packet %.3f", row, v, shares["packet"])
		}
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestFoldRow(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.duffcopy", internalPath + "sim.(*Engine).Run", "main.main"}, "sim"},
		{[]string{"runtime.memmove", internalPath + "rmt.(*Pipeline).Process", internalPath + "core.(*Switch).injectInto"}, "rmt"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", internalPath + "core.(*Switch).Inject"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime_other"},
		{[]string{internalPath + "scenario.Run"}, "other"},
		{[]string{"time.Now", "main.timedSource.Next", internalPath + "sim.(*SourceNode).emit"}, "bench"},
	} {
		if got := foldRow(tc.stack); got != tc.want {
			t.Errorf("foldRow(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestGateRejectsTamperedReport runs a short testbed scenario and checks
// that each invariant holds on the real Report and fails on a tampered
// copy.
func TestGateRejectsTamperedReport(t *testing.T) {
	s := testbedFig7(1)
	s.Opts.WarmupNs, s.Opts.MeasureNs = 1e6, 2e6
	s.Observe.Metrics = true
	rep, err := scenario.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{}
	g.sameReport("identical", rep, rep)
	g.checkSnapshotSlots(rep.Metrics)
	if !g.ok() {
		t.Fatalf("untampered run fails the gate: %v", g.violations)
	}

	tampered := *rep
	tampered.Delivered++
	g = &gate{}
	g.sameReport("tampered", rep, &tampered)
	if g.ok() {
		t.Error("a Report with one more delivered packet passed the equality check")
	}

	snap := *rep.Metrics
	snap.Gauges = append([]obs.GaugeValue(nil), snap.Gauges...)
	for i := range snap.Gauges {
		if strings.HasPrefix(snap.Gauges[i].Name, occupancyGauge) {
			snap.Gauges[i].Value++
		}
	}
	g = &gate{}
	g.checkSnapshotSlots(&snap)
	if g.ok() {
		t.Error("a tampered occupancy gauge passed the slot check")
	}

	fab := &scenario.Report{Fabric: &sim.FabricResult{Switches: []sim.SwitchStats{
		{Name: "leaf0", Splits: 10, Merges: 5, Evictions: 2, Occupancy: 3},
	}}}
	g = &gate{}
	g.checkFabricSlots(fab)
	if !g.ok() {
		t.Fatalf("consistent fabric switch fails: %v", g.violations)
	}
	fab.Fabric.Switches[0].Occupancy = 4
	g.checkFabricSlots(fab)
	if g.ok() {
		t.Error("a tampered fabric occupancy passed the slot check")
	}
}

func TestGateLiveAccounting(t *testing.T) {
	res := &live.Result{Sent: 100, Delivered: 97, NFDropped: 1,
		Counters: live.CounterSet{Splits: 80, Merges: 79, Drops: map[string]uint64{"premature eviction": 1}}}
	g := &gate{}
	l := g.checkLive(res)
	if !g.ok() || l.unaccounted != 2 || l.evicted != 1 || l.socket != 1 {
		t.Fatalf("checkLive = %+v, violations %v", l, g.violations)
	}
	res.Delivered = 100
	g = &gate{}
	g.checkLive(res)
	if g.ok() {
		t.Error("more frames finished than were sent, and the gate passed")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesBenchmarkJSON checks every metric name and unit, and
// that BENCHMARK.json lists exactly the catalog.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	all := append(append([]metricDef(nil), endToEnd...), perLayer()...)
	for _, d := range all {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(section string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s lists %d metrics, the catalog %d", section, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, catalog %+v", section, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
	var names []string
	for _, w := range workloads(1) {
		names = append(names, w.name)
	}
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: %s, program %s", i, w.Name, names[i])
		}
	}
}

// TestRungZeroAllocPipeline checks that a rung over a path pinned at
// zero allocations reports exactly zero.
func TestRungZeroAllocPipeline(t *testing.T) {
	w, _ := findWorkload("testbed-fig7", 1)
	l := newLadder(w, 1, engineLoad{})
	ops, closeAll, err := l.ops()
	defer closeAll()
	if err != nil {
		t.Fatal(err)
	}
	st, err := measureRung(len(l.pkts), rungBatch, ops["rmt.pipeline"])
	if err != nil {
		t.Fatal(err)
	}
	if st.allocs != 0 || st.bytes != 0 {
		t.Errorf("rmt.pipeline: %v allocs/pkt, %v B/pkt; want 0", st.allocs, st.bytes)
	}
	if st.medianNs <= 0 || st.p99Ns < st.medianNs {
		t.Errorf("rmt.pipeline timing median %v p99 %v", st.medianNs, st.p99Ns)
	}
}

// TestEngineLoadProbe checks that the cut-off probes see events in flight
// on a simulated workload, and that the live workload has no engine.
func TestEngineLoadProbe(t *testing.T) {
	ctx := context.Background()
	w, _ := findWorkload("testbed-fig7", 1)
	load, err := measureEngineLoad(ctx, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if load.partitions != 1 || load.depth <= 0 || load.delayNs <= 0 {
		t.Errorf("testbed-fig7 engine load %+v", load)
	}
	w, _ = findWorkload("live-chain", 1)
	if load, err = measureEngineLoad(ctx, w, 1); err != nil || load != (engineLoad{}) {
		t.Errorf("live-chain engine load %+v, %v", load, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
