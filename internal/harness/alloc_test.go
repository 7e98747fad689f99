package harness

import (
	"context"
	"runtime"
	"testing"

	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// allocsPerDelivered runs s once and returns the heap allocations per
// delivered packet, set-up included.
func allocsPerDelivered(t *testing.T, s scenario.Scenario) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := scenario.Run(context.Background(), s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(rep.Delivered)
}

// TestEndToEndAllocsPerPacket pins the whole-run allocation discipline:
// split, merge, NF costs and packet recycling allocate nothing per
// packet, so what is left is set-up and the packets in flight at once.
func TestEndToEndAllocsPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations")
	}
	cases := []struct {
		name    string
		s       scenario.Scenario
		ceiling float64
	}{
		{"testbed-fig7", scenario.Scenario{
			Topology: scenario.Testbed{},
			Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: MacroSlots, MaxExpiry: 1},
			Traffic:  scenario.Traffic{SendBps: 10.5e9, Dist: trafficgen.Datacenter{}},
			Chain:    ChainFWNATLB,
			Server:   NetBricks10G(),
			Opts:     scenario.RunOptions{Seed: 1, WarmupNs: 10e6, MeasureNs: 40e6},
		}, 0.05}, // measured 0.02
		{"leafspine-4x2", scenario.Scenario{
			Topology: scenario.LeafSpine{Leaves: 4, Spines: 2},
			Parking:  scenario.Parking{Mode: sim.ParkEdge},
			Traffic:  scenario.Traffic{SendBps: 6e9},
			Opts:     scenario.RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 8e6, Partitions: 2},
		}, 0.25}, // measured 0.17 (0.18 under -race): set-up and fresh in-flight packets
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := allocsPerDelivered(t, tc.s)
			t.Logf("%.3f allocs per delivered packet", got)
			if got > tc.ceiling {
				t.Errorf("%.3f allocs per delivered packet, want <= %.2f", got, tc.ceiling)
			}
		})
	}
}
