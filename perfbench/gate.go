package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/scenario"
)

// gate collects correctness violations; any one fails the benchmark.
type gate struct {
	violations []string
}

func (g *gate) failf(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// ok reports whether no check failed.
func (g *gate) ok() bool { return len(g.violations) == 0 }

// reportBytes is the Report's JSON form without the observability
// snapshot, which only observed runs carry.
func reportBytes(r *scenario.Report) ([]byte, error) {
	c := *r
	c.Metrics = nil
	return json.Marshal(c)
}

// sameReport checks that got is byte-identical to want (observability
// snapshots aside); what names the comparison in the violation.
func (g *gate) sameReport(what string, want, got *scenario.Report) {
	a, errA := reportBytes(want)
	b, errB := reportBytes(got)
	if errA != nil || errB != nil {
		g.failf("%s: report does not marshal: %v %v", what, errA, errB)
		return
	}
	if !bytes.Equal(a, b) {
		g.failf("%s: report differs from the reference run", what)
	}
}

// checkFabricSlots checks the parked-slot accounting identity on every
// switch of a fabric Report: payloads still parked equal payloads parked
// minus merged minus evicted.
func (g *gate) checkFabricSlots(rep *scenario.Report) {
	if rep.Fabric == nil {
		return
	}
	for _, sw := range rep.Fabric.Switches {
		if want := int64(sw.Splits) - int64(sw.Merges) - int64(sw.Evictions); int64(sw.Occupancy) != want {
			g.failf("%s: occupancy %d != splits-merges-evictions %d", sw.Name, sw.Occupancy, want)
		}
	}
}

const occupancyGauge = "pp_park_occupancy_slots"

// checkSnapshotSlots checks the same identity on every parking program
// of an observed run, from its metrics snapshot (the only place a
// testbed run reports occupancy). Explicit drops also free a slot; the
// workloads run without them, so the term is zero here.
func (g *gate) checkSnapshotSlots(snap *obs.Snapshot) {
	if snap == nil {
		g.failf("observed run carries no metrics snapshot")
		return
	}
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	checked := 0
	for _, gv := range snap.Gauges {
		labels, ok := strings.CutPrefix(gv.Name, occupancyGauge)
		if !ok {
			continue
		}
		get := func(name string) int64 {
			v, ok := counters[name+labels]
			if !ok {
				g.failf("snapshot lacks %s%s", name, labels)
			}
			return int64(v)
		}
		want := get("pp_park_splits_total") - get("pp_park_merges_total") -
			get("pp_park_evictions_total") - get("pp_park_explicit_drops_total")
		if int64(gv.Value) != want || gv.Value != math.Trunc(gv.Value) {
			g.failf("program %s: occupancy %v != splits-merges-evictions %d", labels, gv.Value, want)
		}
		checked++
	}
	if checked == 0 {
		g.failf("snapshot has no parking program to check")
	}
}

// liveLoss splits a live run's frames that never finished into those the
// switch dataplane dropped (evictions and other counted drops) and those
// lost in the loopback sockets (the remainder).
type liveLoss struct {
	unaccounted, evicted, socket uint64
}

func (l *liveLoss) add(o liveLoss) {
	l.unaccounted += o.unaccounted
	l.evicted += o.evicted
	l.socket += o.socket
}

// checkLive checks a live run's frame accounting: sent = delivered +
// NF-dropped + NF-notified + unaccounted, with every dataplane-counted
// drop among the unaccounted frames and every payload still parked
// belonging to one of them.
func (g *gate) checkLive(res *live.Result) liveLoss {
	finished := res.Delivered + res.NFDropped + res.NFNotified
	if finished > res.Sent {
		g.failf("live: %d frames finished but only %d were sent", finished, res.Sent)
		return liveLoss{}
	}
	l := liveLoss{unaccounted: res.Sent - finished}
	for _, n := range res.Counters.Drops {
		l.evicted += n
	}
	if l.evicted > l.unaccounted {
		g.failf("live: the switch counted %d drops but only %d frames are unaccounted", l.evicted, l.unaccounted)
		return liveLoss{}
	}
	l.socket = l.unaccounted - l.evicted
	c := res.Counters
	outstanding := int64(c.Splits) - int64(c.Merges) - int64(c.Evictions) - int64(c.ExplicitDrops)
	if outstanding < 0 || uint64(outstanding) > l.unaccounted {
		g.failf("live: %d payloads still parked against %d unaccounted frames", outstanding, l.unaccounted)
	}
	if res.Sent != res.Delivered+res.NFDropped+res.NFNotified+l.socket+l.evicted {
		g.failf("live: sent %d != delivered %d + NF-dropped %d + NF-notified %d + socket-lost %d + evicted %d",
			res.Sent, res.Delivered, res.NFDropped, res.NFNotified, l.socket, l.evicted)
	}
	return l
}

// outcome counts one run's attempted and failed operations. Simulated
// runs attempt the packets offered in the measurement window. On the
// testbed every unintended drop fails (the workload is sized to stay
// healthy). The 16x8 fabric overloads its NF servers by design, so
// their receive-ring and stage-queue overflows are the modelled result,
// reported as sim.drop_frac; its failures are premature evictions, payloads lost
// before their merge. Live runs attempt the frames sent and fail the
// unaccounted.
func outcome(rep *scenario.Report) (attempted, failed uint64) {
	switch {
	case rep.Live != nil:
		finished := rep.Live.Delivered + rep.Live.NFDropped + rep.Live.NFNotified
		if finished > rep.Live.Sent {
			return rep.Live.Sent, 0 // checkLive reports the violation
		}
		return rep.Live.Sent, rep.Live.Sent - finished
	case rep.Fabric != nil:
		return rep.Fabric.SentWindow, rep.Premature
	default:
		// The testbed Report gives the drop rate, not the offered count:
		// offered = finished / (1 - rate).
		t := rep.Testbed
		done := t.Delivered + t.NFDrops
		sent := uint64(math.Round(float64(done) / (1 - t.UnintendedDropRate)))
		return sent, sent - done
	}
}
