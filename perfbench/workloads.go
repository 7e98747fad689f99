package main

import (
	"runtime"

	"github.com/payloadpark/payloadpark/internal/harness"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// workload is one set of inputs the benchmark runs. Every workload takes
// the seed as its only variable; the program receives the scenario built
// from it.
type workload struct {
	name string
	why  string
	// build returns the workload's scenario.
	build func(seed int64) scenario.Scenario
	// setup returns the same scenario cut down to its set-up: a near-zero
	// measurement window, or a one-frame budget on the live fabric.
	setup func(seed int64) scenario.Scenario
	// live marks the socket-backed workload; the others are simulated.
	live bool
	// stream configures the generator whose packets the ladder rungs
	// replay: the same size mix, flow count and seed the workload uses.
	stream trafficgen.Config
	// linkBps is the link rate the sim.link rung models.
	linkBps float64
}

// liveFrames is the live-chain frame budget per run. At ~40 kpps on a
// 2-core host one run lasts ~2.5 s, so the fabric's fixed >=40 ms settle
// poll, which live.Result.ElapsedNs includes, stays near 2% of it.
const liveFrames = 100000

// fabricPartitions is the 16x8 fabric's partition count: two, or fewer
// on a host with fewer cores.
func fabricPartitions() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func testbedFig7(seed int64) scenario.Scenario {
	return scenario.Scenario{
		Name:     "testbed-fig7",
		Topology: scenario.Testbed{},
		Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: harness.MacroSlots, MaxExpiry: 1},
		Traffic:  scenario.Traffic{SendBps: 10.5e9, Dist: trafficgen.Datacenter{}},
		Chain:    harness.ChainFWNATLB,
		Server:   harness.NetBricks10G(),
		Opts:     scenario.RunOptions{Seed: seed, WarmupNs: 10e6, MeasureNs: 40e6},
	}
}

func fabric16x8(seed int64) scenario.Scenario {
	return scenario.Scenario{
		Name:     "fabric-16x8",
		Topology: scenario.LeafSpine{Leaves: 16, Spines: 8, LinkBps: 100e9},
		Parking:  scenario.Parking{Mode: sim.ParkEdge},
		Traffic:  scenario.Traffic{SendBps: 60e9},
		Opts:     scenario.RunOptions{Seed: seed, WarmupNs: 5e5, MeasureNs: 2e6, Partitions: fabricPartitions()},
	}
}

func liveChain(seed int64) scenario.Scenario {
	return scenario.Scenario{
		Name: "live-chain",
		// A 128-frame window keeps the in-flight bytes far inside the 2 MiB
		// socket buffers even when the blaster writes off a window that
		// stalled for 10 ms (a descheduled process can cause that) and
		// sends past it; at 512 frames loopback sockets dropped datagrams.
		// 4096 slots against it mean no slot wraps before its merge
		// arrives.
		Topology: scenario.Live{Geometry: "chain", Pipes: 1, Frames: liveFrames, Window: 128},
		Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 4096},
		Opts:     scenario.RunOptions{Seed: seed},
	}
}

// nearZeroWindow keeps a simulated scenario's set-up and drops its
// traffic: a 1 ns warm-up and window.
func nearZeroWindow(build func(int64) scenario.Scenario) func(int64) scenario.Scenario {
	return func(seed int64) scenario.Scenario {
		s := build(seed)
		s.Opts.WarmupNs, s.Opts.MeasureNs = 1, 1
		return s
	}
}

func oneFrame(seed int64) scenario.Scenario {
	s := liveChain(seed)
	lt := s.Topology.(scenario.Live)
	lt.Frames = 1
	s.Topology = lt
	return s
}

// simStream is the generator configuration of the simulated sources
// (sim.RunTestbed's default generator; the fabric's sources share its
// size mix and flow count).
func simStream(seed int64) trafficgen.Config {
	return trafficgen.Config{
		Sizes: trafficgen.Datacenter{}, Flows: 1024,
		SrcMAC: sim.MACGen, DstMAC: sim.MACNF,
		DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80,
		Seed: seed,
	}
}

// workloads returns the three workloads for seed, in print order.
func workloads(seed int64) []workload {
	liveStream := simStream(seed)
	liveStream.Flows = 256 // live.Config's default flow population
	return []workload{
		{
			name:    "testbed-fig7",
			why:     "the paper's headline Fig. 7 case; per-packet layers (rmt/core split+merge, trafficgen, nf) dominate, few events in flight, no partitions",
			build:   testbedFig7,
			setup:   nearZeroWindow(testbedFig7),
			stream:  simStream(seed),
			linkBps: 10e9,
		},
		{
			name:    "fabric-16x8",
			why:     "16x8 leaf-spine at 100 GbE, overloaded, 2 partitions; the event engine, the drop path at the NF servers and partition barriers dominate",
			build:   fabric16x8,
			setup:   nearZeroWindow(fabric16x8),
			stream:  simStream(seed),
			linkBps: 100e9,
		},
		{
			name:    "live-chain",
			why:     "real loopback UDP through one pipe; the only workload through wire/live and core.FrameBurst, with no sim work",
			build:   liveChain,
			setup:   oneFrame,
			live:    true,
			stream:  liveStream,
			linkBps: 10e9,
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string, seed int64) (workload, bool) {
	for _, w := range workloads(seed) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fwNATLB builds the FW->NAT->LB chain of harness.ChainFWNATLB from the
// same parts, passing each NF through wrap. The traced testbed run wraps
// them in timing delegates; the gate proves the result identical to the
// harness chain by comparing the traced Report with the dark one.
func fwNATLB(wrap func(nf.NF) nf.NF) (*nf.Chain, error) {
	rules := make([]nf.FirewallRule, 20)
	for i := range rules {
		rules[i] = nf.FirewallRule{Prefix: packet.IPv4Addr{172, 16, byte(i), 0}, Bits: 24}
	}
	lb, err := nf.NewLoadBalancer(map[string]packet.IPv4Addr{
		"backend-0": {10, 2, 0, 10}, "backend-1": {10, 2, 0, 11},
		"backend-2": {10, 2, 0, 12}, "backend-3": {10, 2, 0, 13},
	})
	if err != nil {
		return nil, err
	}
	return nf.NewChain(
		wrap(nf.NewFirewall(rules)),
		wrap(nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1})),
		wrap(lb),
	), nil
}
