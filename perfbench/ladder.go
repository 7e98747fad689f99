package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/harness"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// The ladder times calls into each layer's exported functions from
// outside, over the workload's own generated packet stream. A rung's
// cost per packet is taken per batch (one clock read per batch, not per
// packet, so the clock's own cost stays out of sub-100 ns figures); the
// median and p99 are over batches. Allocations come from a separate pass
// over the whole stream with runtime.MemStats read around every timed
// section.

const (
	streamLen = 4096
	rungBatch = 64
	// rungTime is each rung's timing pass, after one warm-up pass.
	rungTime  = 150 * time.Millisecond
	portSplit = rmt.PortID(0)
	portNF    = rmt.PortID(1)
	portSink  = rmt.PortID(2)
)

// meter accumulates the time, and in the allocation pass the heap
// allocations, of a rung's timed sections.
type meter struct {
	allocs          bool
	t               time.Time
	d               time.Duration
	m0, m1          runtime.MemStats
	mallocs, nbytes uint64
}

func (m *meter) start() {
	if m.allocs {
		runtime.ReadMemStats(&m.m0)
	}
	m.t = time.Now()
}

func (m *meter) stop() {
	m.d += time.Since(m.t)
	if m.allocs {
		runtime.ReadMemStats(&m.m1)
		m.mallocs += m.m1.Mallocs - m.m0.Mallocs
		m.nbytes += m.m1.TotalAlloc - m.m0.TotalAlloc
	}
}

// rungOp processes stream packets [lo, hi), bracketing the layer's work
// with m.start and m.stop, and returns the operations done there
// (packets, or events on the engine rung).
type rungOp func(lo, hi int, m *meter) (int, error)

// rungStats is one rung's cost per operation.
type rungStats struct {
	medianNs, p99Ns, allocs, bytes float64
}

// measureRung runs op over the stream in batches: one warm-up pass, one
// allocation pass, then timing passes for rungTime.
func measureRung(n, batch int, op rungOp) (rungStats, error) {
	var perOp []float64
	ops := 0
	pass := func(m *meter) error {
		for lo := 0; lo < n; lo += batch {
			m.d = 0
			k, err := op(lo, min(lo+batch, n), m)
			if err != nil {
				return err
			}
			ops += k
			if k > 0 {
				perOp = append(perOp, float64(m.d.Nanoseconds())/float64(k))
			}
		}
		return nil
	}
	if err := pass(&meter{}); err != nil {
		return rungStats{}, err
	}
	ops = 0
	am := &meter{allocs: true}
	if err := pass(am); err != nil {
		return rungStats{}, err
	}
	if ops == 0 {
		return rungStats{}, errors.New("rung did no work")
	}
	perOp = perOp[:0]
	for start := time.Now(); time.Since(start) < rungTime; {
		if err := pass(&meter{}); err != nil {
			return rungStats{}, err
		}
	}
	return rungStats{
		medianNs: median(perOp),
		p99Ns:    quantile(perOp, 0.99),
		allocs:   float64(am.mallocs) / float64(ops),
		bytes:    float64(am.nbytes) / float64(ops),
	}, nil
}

// chainCosts keeps the nf.chain rung's results alive.
var chainCosts []nf.StageCost

// ladder holds one workload's replay stream and its measured engine
// load.
type ladder struct {
	w      workload
	seed   int64
	load   engineLoad
	pkts   []*packet.Packet
	frames [][]byte
}

func newLadder(w workload, seed int64, load engineLoad) *ladder {
	g := trafficgen.New(w.stream)
	l := &ladder{w: w, seed: seed, load: load}
	for i := 0; i < streamLen; i++ {
		p := g.Next()
		l.pkts = append(l.pkts, p)
		l.frames = append(l.frames, p.Serialize())
	}
	return l
}

// parkSwitch is the testbed switch: split on port 0, merge on port 1,
// the sink behind port 2.
func parkSwitch() (*core.Switch, error) {
	sw := core.NewSwitch("ladder")
	sw.AddL2Route(sim.MACNF, portNF)
	sw.AddL2Route(sim.MACSink, portSink)
	if _, err := sw.AttachPayloadPark(core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: portSplit, MergePort: portNF}, -1); err != nil {
		return nil, err
	}
	return sw, nil
}

// workPackets returns batch reusable packets for rungs whose layer
// rewrites headers, so every batch starts from a fresh copy of the stream.
func workPackets(batch int) []*packet.Packet {
	out := make([]*packet.Packet, batch)
	for i := range out {
		out[i] = &packet.Packet{Payload: make([]byte, 0, wire.MaxFrame)}
	}
	return out
}

func (l *ladder) cloneBatch(work []*packet.Packet, lo, hi int) {
	for i := lo; i < hi; i++ {
		l.pkts[i].CloneInto(work[i-lo])
	}
}

// run measures every rung, keyed by rung name.
func (l *ladder) run() (map[string]rungStats, error) {
	ops, closeAll, err := l.ops()
	defer closeAll()
	if err != nil {
		return nil, err
	}
	out := map[string]rungStats{}
	for _, r := range rungs {
		op, ok := ops[r]
		if !ok {
			return nil, fmt.Errorf("ladder: no rung %s", r)
		}
		batch := rungBatch
		if r == "wire.send" || r == "wire.recv" {
			batch = wire.DefaultBurst // the live workers' burst
		}
		st, err := measureRung(len(l.pkts), batch, op)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", r, err)
		}
		out[r] = st
	}
	return out, nil
}

// ops builds every rung's operation and the function that releases the
// sockets.
func (l *ladder) ops() (map[string]rungOp, func(), error) {
	noop := func() {}
	ops := map[string]rungOp{}

	gen := trafficgen.New(l.w.stream)
	ops["trafficgen.next"] = func(lo, hi int, m *meter) (int, error) {
		m.start()
		for i := lo; i < hi; i++ {
			gen.Recycle(gen.Next())
		}
		m.stop()
		return hi - lo, nil
	}

	parsed := workPackets(rungBatch)
	ops["packet.parse"] = func(lo, hi int, m *meter) (int, error) {
		m.start()
		defer m.stop()
		for i := lo; i < hi; i++ {
			if err := packet.ParseAtInto(parsed[i-lo], l.frames[i], -1); err != nil {
				return 0, err
			}
		}
		return hi - lo, nil
	}

	buf := make([]byte, 0, wire.MaxFrame)
	ops["packet.serialize"] = func(lo, hi int, m *meter) (int, error) {
		m.start()
		for _, p := range l.pkts[lo:hi] {
			buf = p.AppendSerialize(buf[:0])
		}
		m.stop()
		return hi - lo, nil
	}

	phvSw, err := parkSwitch()
	if err != nil {
		return nil, noop, err
	}
	pipe := phvSw.Pipe(0)
	ops["rmt.phv"] = func(lo, hi int, m *meter) (int, error) {
		m.start()
		for _, p := range l.pkts[lo:hi] {
			phv := pipe.AcquirePHV()
			pipe.Parser().FillPHV(phv, p, portSplit)
			pipe.ReleasePHV(phv)
		}
		m.stop()
		return hi - lo, nil
	}
	phvs := make([]*rmt.PHV, rungBatch)
	ops["rmt.pipeline"] = func(lo, hi int, m *meter) (int, error) {
		batch := phvs[:hi-lo]
		for j := range batch {
			batch[j] = pipe.AcquirePHV()
			pipe.Parser().FillPHV(batch[j], l.pkts[lo+j], portSplit)
		}
		m.start()
		for _, phv := range batch {
			pipe.Process(phv)
		}
		m.stop()
		for _, phv := range batch {
			pipe.ReleasePHV(phv)
		}
		return hi - lo, nil
	}

	if ops["core.inject"], err = l.injectOp(); err != nil {
		return nil, noop, err
	}
	if ops["core.burst"], err = l.burstOp(); err != nil {
		return nil, noop, err
	}

	chain := harness.ChainFWNATLB()
	chainWork := workPackets(rungBatch)
	ops["nf.chain"] = func(lo, hi int, m *meter) (int, error) {
		l.cloneBatch(chainWork, lo, hi)
		m.start()
		for _, p := range chainWork[:hi-lo] {
			// Keep the stage costs, as nf.Server does, so the compiler
			// cannot keep them on the stack.
			_, chainCosts = chain.Process(p)
		}
		m.stop()
		return hi - lo, nil
	}

	ops["sim.engine"] = l.engineOp()
	ops["sim.link"] = l.linkOp()
	ops["sim.server"] = l.serverOp()

	send, recv, closeSock, err := l.wireOps()
	if err != nil {
		return nil, noop, err
	}
	ops["wire.send"], ops["wire.recv"] = send, recv
	return ops, closeSock, nil
}

// injectOp runs each packet through the parking switch as the testbed
// does: split on the generator port, then, with the NF's MAC rewrite,
// merge on the NF port. The merge restores the packet, so the stream
// replays without copies.
func (l *ladder) injectOp() (rungOp, error) {
	sw, err := parkSwitch()
	if err != nil {
		return nil, err
	}
	pkts := make([]*packet.Packet, len(l.pkts))
	for i, p := range l.pkts {
		pkts[i] = p.Clone()
	}
	var em core.Emission
	return func(lo, hi int, m *meter) (int, error) {
		m.start()
		defer m.stop()
		for _, p := range pkts[lo:hi] {
			if ok, why := sw.InjectReuse(p, portSplit, &em); !ok {
				return 0, fmt.Errorf("split dropped: %s", why)
			}
			em.Pkt.Eth.Src, em.Pkt.Eth.Dst = sim.MACNF, sim.MACSink
			if ok, why := sw.InjectReuse(em.Pkt, portNF, &em); !ok {
				return 0, fmt.Errorf("merge dropped: %s", why)
			}
			em.Pkt.Eth.Src, em.Pkt.Eth.Dst = sim.MACGen, sim.MACNF
		}
		return hi - lo, nil
	}, nil
}

// burstOp runs the live switch worker's path: one FrameBurst of
// generator frames split, their emissions re-serialised with the NF's
// MAC rewrite (untimed: that is packet.serialize's cost), then one burst
// merged.
func (l *ladder) burstOp() (rungOp, error) {
	sw, err := parkSwitch()
	if err != nil {
		return nil, err
	}
	split, merge := sw.NewFrameBurst(rungBatch), sw.NewFrameBurst(rungBatch)
	mid := make([][]byte, rungBatch)
	for i := range mid {
		mid[i] = make([]byte, 0, wire.MaxFrame)
	}
	return func(lo, hi int, m *meter) (int, error) {
		m.start()
		split.Reset()
		for _, f := range l.frames[lo:hi] {
			if err := split.Add(f, portSplit); err != nil {
				m.stop()
				return 0, err
			}
		}
		res := split.Run()
		m.stop()
		for j := range res {
			if !res[j].OK {
				return 0, fmt.Errorf("split dropped: %s", res[j].Reason)
			}
			p := res[j].Em.Pkt
			p.Eth.Src, p.Eth.Dst = sim.MACNF, sim.MACSink
			mid[j] = p.AppendSerialize(mid[j][:0])
		}
		m.start()
		defer m.stop()
		merge.Reset()
		for _, f := range mid[:len(res)] {
			if err := merge.Add(f, portNF); err != nil {
				return 0, err
			}
		}
		for _, r := range merge.Run() {
			if !r.OK {
				return 0, fmt.Errorf("merge dropped: %s", r.Reason)
			}
		}
		return hi - lo, nil
	}, nil
}

// engineLoad is a simulated workload's event-engine load, measured from
// its public engine counters: the mean number of events pending per
// partition engine, and the mean delay from scheduling an event to
// running it.
type engineLoad struct {
	partitions int
	depth      float64
	delayNs    float64
}

// measureEngineLoad runs the workload twice with the metrics snapshot
// on, each run cut off inside the workload's measurement window: with a
// 1 ns warm-up and the window ending at the cut-off instant, the sources
// are still sending when the run stops. A full run's snapshot cannot
// serve: the run ends half a warm-up after its sources stop, when the
// fabric has drained. The cut-offs are the middle and the end of the
// workload's window. depth is the mean of the two pending counts; the
// event rate is the executed-event difference over the time between
// them; delayNs follows by Little's law (pending = rate × delay). A live
// workload has no engine and returns the zero load.
func measureEngineLoad(ctx context.Context, w workload, seed int64) (engineLoad, error) {
	if w.live {
		return engineLoad{}, nil
	}
	s := w.build(seed)
	warmup, measure := s.Opts.WarmupNs, s.Opts.MeasureNs
	if warmup <= 0 || measure <= 0 {
		return engineLoad{}, fmt.Errorf("%s: engine probes need an explicit warm-up and window", w.name)
	}
	cut := [2]int64{warmup + measure/2, warmup + measure}
	var pending, events [2]float64
	var partitions int
	for i, t := range cut {
		p := w.build(seed)
		p.Observe.Metrics = true
		p.Opts.WarmupNs, p.Opts.MeasureNs = 1, t-1
		rep, err := scenario.Run(ctx, p)
		if err != nil {
			return engineLoad{}, fmt.Errorf("%s engine probe: %w", w.name, err)
		}
		ix := indexSnapshot(rep.Metrics)
		pending[i] = ix.gauges["pp_engine_pending_events"]
		events[i] = ix.counters["pp_engine_events_total"]
		partitions = ix.countersPerName["pp_engine_events_total"]
	}
	rate := (events[1] - events[0]) / float64(cut[1]-cut[0])
	if partitions == 0 || rate <= 0 {
		return engineLoad{}, fmt.Errorf("%s engine probe: %d partitions, %g events/ns", w.name, partitions, rate)
	}
	mean := (pending[0] + pending[1]) / 2
	return engineLoad{
		partitions: partitions,
		depth:      mean / float64(partitions),
		delayNs:    mean / rate,
	}, nil
}

// engineOp keeps the workload's measured per-engine depth of events in
// flight, each re-arming itself with a fresh delay drawn uniformly from
// [1, 2×delayNs), so the mean delay is the measured one; the shape of
// the distribution is synthetic. On a workload without an engine it runs
// one event at 1 ns delays: the bare schedule-and-run cost. It times the
// engine over spans expected to hold about one batch of events.
func (l *ladder) engineOp() rungOp {
	eng := sim.NewEngine()
	depth := max(1, int(math.Round(l.load.depth)))
	meanDelay := max(1, l.load.delayNs)
	bound := uint64(max(1, math.Round(2*meanDelay)-1))
	rng := uint64(l.seed)*0x9e3779b97f4a7c15 | 1
	delay := func() int64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return 1 + int64(rng%bound)
	}
	var rearm func(sim.Parcel)
	rearm = func(p sim.Parcel) { eng.ScheduleParcel(delay(), rearm, p) }
	for i := 0; i < depth; i++ {
		eng.ScheduleParcel(delay(), rearm, sim.Parcel{Pkt: l.pkts[i%len(l.pkts)]})
	}
	return func(lo, hi int, m *meter) (int, error) {
		span := int64(float64(hi-lo)*meanDelay/float64(depth)) + 1
		before := eng.Executed()
		m.start()
		eng.Run(eng.Now() + span)
		m.stop()
		return int(eng.Executed() - before), nil
	}
}

// drainNs is how far a rung advances the clock to finish every event a
// batch scheduled.
const drainNs = 1e12

// linkOp sends each packet onto an idle link at the workload's line rate
// and runs the engine until all are delivered.
func (l *ladder) linkOp() rungOp {
	eng := sim.NewEngine()
	var delivered, dropped int
	link := sim.NewLink(eng, l.w.linkBps, 500, 1<<20,
		func(sim.Parcel) { delivered++ },
		func(sim.Parcel, string) { dropped++ })
	return func(lo, hi int, m *meter) (int, error) {
		delivered, dropped = 0, 0
		m.start()
		for _, p := range l.pkts[lo:hi] {
			link.Send(sim.Parcel{Pkt: p})
		}
		eng.Run(eng.Now() + drainNs)
		m.stop()
		if delivered != hi-lo || dropped != 0 {
			return 0, fmt.Errorf("link delivered %d and dropped %d of %d", delivered, dropped, hi-lo)
		}
		return hi - lo, nil
	}
}

// serverOp hands each packet to the NetBricks FW->NAT->LB server model
// and runs the engine until every packet has left it.
func (l *ladder) serverOp() rungOp {
	eng := sim.NewEngine()
	srv := nf.NewServer(nf.ServerConfig{
		Chain: harness.ChainFWNATLB(), RewriteMACs: true,
		NFMAC: sim.MACNF, NextHopMAC: sim.MACSink,
	})
	var out, dropped int
	ss := sim.NewServerSim(eng, harness.NetBricks10G(), srv, l.seed,
		func(sim.Parcel) { out++ },
		func(sim.Parcel, string) { dropped++ },
		func(sim.Parcel) { dropped++ })
	work := workPackets(rungBatch)
	return func(lo, hi int, m *meter) (int, error) {
		l.cloneBatch(work, lo, hi)
		out, dropped = 0, 0
		m.start()
		for _, p := range work[:hi-lo] {
			ss.Receive(sim.Parcel{Pkt: p})
		}
		eng.Run(eng.Now() + drainNs)
		m.stop()
		if out != hi-lo {
			return 0, fmt.Errorf("server returned %d and dropped %d of %d", out, dropped, hi-lo)
		}
		return hi - lo, nil
	}
}

// wireOps builds the socket rungs on a loopback pair: send times
// BatchSender.Queue+Flush (one sendmmsg on linux), recv times the
// BurstReader reads that drain the same frames.
func (l *ladder) wireOps() (send, recv rungOp, closeAll func(), err error) {
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	tx, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return nil, nil, func() {}, err
	}
	rx, err := net.ListenUDP("udp", loopback)
	if err != nil {
		tx.Close()
		return nil, nil, func() {}, err
	}
	closeAll = func() { tx.Close(); rx.Close() }
	wire.TuneUDP(tx)
	wire.TuneUDP(rx)
	dst := rx.LocalAddr().(*net.UDPAddr)
	bs := wire.NewBatchSender(tx)
	br := wire.NewBurstReader(rx, wire.DefaultBurst)
	flush := func(lo, hi int) error {
		for _, f := range l.frames[lo:hi] {
			bs.Queue(f, dst, nil)
		}
		if errs := bs.Flush(); errs > 0 {
			return fmt.Errorf("%d sends failed", errs)
		}
		return nil
	}
	read := func(n int) error {
		for got := 0; got < n; {
			// A lost datagram must fail the rung, not hang it.
			if err := rx.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
				return err
			}
			k, err := br.Read()
			if err != nil {
				return fmt.Errorf("read %d of %d frames: %w", got, n, err)
			}
			got += k
		}
		return nil
	}
	send = func(lo, hi int, m *meter) (int, error) {
		m.start()
		err := flush(lo, hi)
		m.stop()
		if err != nil {
			return 0, err
		}
		return hi - lo, read(hi - lo)
	}
	recv = func(lo, hi int, m *meter) (int, error) {
		if err := flush(lo, hi); err != nil {
			return 0, err
		}
		m.start()
		err := read(hi - lo)
		m.stop()
		return hi - lo, err
	}
	return send, recv, closeAll, nil
}
