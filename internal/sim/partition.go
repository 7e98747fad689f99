package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file is the parallel half of the event core: a fabric's switch
// graph is split into partitions, each with its own Engine and goroutine,
// conservatively synchronized on link propagation delay.
//
// The synchronization is windowed (YAWNS-style): all partitions execute
// their local events inside a window of length lookahead — the minimum
// propagation delay of any cross-partition link — then meet at a barrier
// where cross-partition deliveries are exchanged. A packet finishing
// serialization at local time t inside window [T, T+Δ) arrives at t+prop
// >= T+Δ, i.e. never inside the window that produced it, so no partition
// can receive an event in its past. Windows skip idle gaps: each round
// starts at the earliest pending event across all partitions.
//
// Determinism is the contract. Within a partition, events execute in
// (at, seq) order exactly as in the serial engine. Across partitions,
// every delivery crossing a cut is stamped with (arrival time, sender
// clock at transmit, lane, per-lane sequence) — lane being the crossing
// link's creation index — and the barrier drains each mailbox in that
// order, so the receiving engine enqueues simultaneous arrivals as the
// serial engine interleaved their transmit completions whenever the
// (at, sentAt) prefix decides, which it does for every preset (pinned
// by TestLeafSpinePartitionParity under -race, including against the
// serial engine at k=1).
//
// Known tie-break corner: when two DIFFERENT cut links with equal
// propagation delay complete transmissions at the same nanosecond toward
// the same destination partition, the serial engine orders the two
// deliveries by its global event seq (the order the tx-done events were
// scheduled), while the barrier orders them by lane. Reconstructing the
// serial seq would require replaying the serial engine's global counter
// across partitions, so in that corner the contract weakens to: results
// are fully deterministic for a given (topology, partition count) — lane
// order is fixed by link creation order — but are not guaranteed
// bit-equal across partition counts, because the set of links that cross
// a cut (and therefore which deliveries are lane-ordered rather than
// seq-ordered) depends on the partitioning. None of the preset
// workloads hit the corner: their sources are desynchronized, so no two
// cut links finish distinct transmissions on the same nanosecond.

// greedyPartition assigns n nodes to k parts, greedily keeping neighbors
// together (minimizing cut edges) under a balance cap of ceil(n/k) nodes
// per part. adj lists each node's neighbors. Nodes are placed in order of
// decreasing degree (stable by index), each onto the part holding the
// most of its already-placed neighbors; ties go to the least-loaded, then
// lowest-indexed part. Deterministic for a given (adj, k).
func greedyPartition(adj [][]int, k int) []int {
	n := len(adj)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	most := (n + k - 1) / k
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(adj[order[a]]) > len(adj[order[b]])
	})
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	load := make([]int, k)
	affinity := make([]int, k) // scratch: placed neighbors per part
	for _, v := range order {
		for p := range affinity {
			affinity[p] = 0
		}
		for _, u := range adj[v] {
			if part[u] >= 0 {
				affinity[part[u]]++
			}
		}
		best := -1
		for p := 0; p < k; p++ {
			if load[p] >= most {
				continue
			}
			if best < 0 || affinity[p] > affinity[best] ||
				(affinity[p] == affinity[best] && load[p] < load[best]) {
				best = p
			}
		}
		part[v] = best
		load[best]++
	}
	return part
}

// crossMsg is one delivery crossing a partition cut, captured in the
// sender's mailbox during a window and drained at the barrier.
type crossMsg struct {
	at     int64 // arrival time (transmit completion + propagation)
	sentAt int64 // sender's clock at transmit completion
	lane   int32 // crossing link's creation index
	seq    uint64
	fn     func(Parcel)
	p      Parcel
}

// mailbox is one directed (source partition -> destination partition)
// message buffer. Only the source partition's goroutine appends during a
// window; only the single-threaded barrier reads and resets it.
type mailbox struct {
	msgs []crossMsg
	seq  uint64
}

func (m *mailbox) post(at, sentAt int64, lane int32, fn func(Parcel), p Parcel) {
	m.seq++
	m.msgs = append(m.msgs, crossMsg{at: at, sentAt: sentAt, lane: lane, seq: m.seq, fn: fn, p: p})
}

// runParallel drives a partitioned fabric to until. Serial fabrics (one
// partition) never reach this: Fabric.Run short-circuits to Engine.Run.
func (f *Fabric) runParallel(until int64) {
	delta := f.minCrossProp
	if delta <= 0 {
		// No link crosses a cut: the partitions are independent timelines.
		delta = until + 1
	}
	k := len(f.parts)
	// Persistent workers: one goroutine per partition, round-tripped per
	// window through unbuffered channels (the channel handoffs are the
	// happens-before edges that keep the mailboxes race-free).
	starts := make([]chan int64, k)
	// Workers acknowledge each window with their wall-clock finish time
	// when barrier metrics are on, zero otherwise; the value never
	// reaches simulation state either way.
	obsOn := f.obs != nil && f.obs.reg != nil
	done := make(chan int64, k)
	var wg sync.WaitGroup
	for i, e := range f.parts {
		starts[i] = make(chan int64)
		wg.Add(1)
		go func(e *Engine, start <-chan int64) {
			defer wg.Done()
			for limit := range start {
				e.Run(limit)
				var finished int64
				if obsOn {
					finished = time.Now().UnixNano() //pp:nondeterministic-ok wall-clock barrier-stall metric only, gated on observability and never fed back into the sim
				}
				done <- finished
			}
		}(e, starts[i])
	}
	for {
		// Next window starts at the earliest pending event anywhere.
		next := int64(-1)
		for _, e := range f.parts {
			if at, ok := e.nextAt(); ok && (next < 0 || at < next) {
				next = at
			}
		}
		if next < 0 || next > until {
			break
		}
		limit := next + delta - 1 // execute events with at < next+delta
		if limit > until {
			limit = until
		}
		for _, c := range starts {
			c <- limit
		}
		var tSum, tMax int64
		for range f.parts {
			t := <-done
			tSum += t
			if t > tMax {
				tMax = t
			}
		}
		if obsOn {
			// Stall = how long the fast partitions collectively idled
			// behind the slowest one this round.
			f.obs.rounds++
			f.obs.stallNs += int64(k)*tMax - tSum
		}
		canceled := false
		for _, e := range f.parts {
			if e.canceled {
				canceled = true
			}
		}
		if canceled {
			// Mark the fabric engine so Canceled() answers for the run.
			f.eng.canceled = true
			break
		}
		f.flushMail()
	}
	for _, c := range starts {
		close(c)
	}
	wg.Wait()
	if !f.eng.canceled {
		for _, e := range f.parts {
			if e.now < until {
				e.now = until
			}
		}
	}
}

// compareCross orders cross-partition messages by (at, sentAt, lane,
// seq), a total order: no two messages share a lane and a seq.
func compareCross(a, b crossMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sentAt, b.sentAt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.lane, b.lane); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// flushMail drains every mailbox into its destination engine. Runs
// single-threaded between windows. Messages destined to one partition are
// merged across all senders and enqueued in (at, sentAt, lane, seq)
// order; the receiving engine's local seq then preserves exactly that
// order among simultaneous arrivals.
func (f *Fabric) flushMail() {
	k := len(f.parts)
	for dst := 0; dst < k; dst++ {
		buf := f.flushBuf[:0]
		for src := 0; src < k; src++ {
			mb := &f.mail[src][dst]
			buf = append(buf, mb.msgs...)
			// Zero the drained slots, not just the scratch copies below:
			// the mailbox backing array would otherwise pin delivered
			// parcels and closures until a later window overwrites them.
			for i := range mb.msgs {
				mb.msgs[i] = crossMsg{}
			}
			mb.msgs = mb.msgs[:0]
		}
		if len(buf) == 0 {
			continue
		}
		if f.obs != nil {
			f.obs.crossMsgs += uint64(len(buf))
			if len(buf) > f.obs.mailboxPeak {
				f.obs.mailboxPeak = len(buf)
			}
		}
		slices.SortFunc(buf, compareCross)
		e := f.parts[dst]
		for i := range buf {
			m := &buf[i]
			e.ScheduleParcelAt(m.at, m.fn, m.p)
			m.fn = nil
			m.p = Parcel{}
		}
		f.flushBuf = buf[:0]
	}
}

// SetPartitions splits the fabric into k conservatively synchronized
// partitions, each with its own engine and goroutine. Must be called on
// an empty fabric, before any node or link exists, because nodes bind to
// their partition's engine at creation. k=1 leaves the fabric serial.
func (f *Fabric) SetPartitions(k int) {
	if len(f.switches) > 0 || len(f.links) > 0 || len(f.sources) > 0 || len(f.sinks) > 0 {
		panic("sim: SetPartitions on a populated fabric")
	}
	if k < 1 {
		k = 1
	}
	f.parts = make([]*Engine, k)
	f.parts[0] = f.eng
	for i := 1; i < k; i++ {
		f.parts[i] = NewEngine()
	}
	f.mail = make([][]mailbox, k)
	for i := range f.mail {
		f.mail[i] = make([]mailbox, k)
	}
}

// Partitions returns the partition count (1 for a serial fabric).
func (f *Fabric) Partitions() int {
	if len(f.parts) == 0 {
		return 1
	}
	return len(f.parts)
}

// PartitionEngine returns partition p's engine; p=0 is the fabric's main
// engine, the only one on a serial fabric.
func (f *Fabric) PartitionEngine(p int) *Engine {
	if p == 0 || len(f.parts) == 0 {
		return f.eng
	}
	return f.parts[p]
}

// bindCross registers l as a cut-crossing link: transmit-side events stay
// on src's engine, and completed transmissions post to the src->dst
// mailbox instead of scheduling the delivery locally.
func (f *Fabric) bindCross(l *Link, src, dst int) {
	if l.PropNs <= 0 {
		panic(fmt.Sprintf("sim: cross-partition link %q needs positive propagation delay (conservative lookahead)", l.Name))
	}
	l.xbox = &f.mail[src][dst]
	l.lane = f.lanes
	f.lanes++
	if f.minCrossProp == 0 || l.PropNs < f.minCrossProp {
		f.minCrossProp = l.PropNs
	}
}
