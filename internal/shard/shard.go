// Package shard runs one simulation across several engines — one per
// topology region — with conservative time-window synchronization, and
// reproduces the serial event order exactly (DESIGN.md §12).
//
// # Scheme
//
// The topology partitioner (internal/topology.Partition) splits the
// switch graph into K regions; hosts follow their switches, so only
// switch-switch links are cut. Let L be the minimum propagation delay
// over the cut links. Execution proceeds in rounds of length at most L:
// round r runs every region independently over (t_{r-1}, t_r], then a
// barrier absorbs the packets that crossed a region boundary during the
// round. Conservatism is exactly the classic lookahead argument: a
// packet leaving region A at time s > t_{r-1} arrives at s + d >
// t_{r-1} + L >= t_r, i.e. strictly after the window every region just
// finished — no region ever receives an event in its past.
//
// # Determinism
//
// Running identically to the serial engine takes more than safety: the
// serial engine orders same-instant events by a single global sequence
// counter, which sharding removes. Three mechanisms restore it:
//
//   - Every region engine numbers local events with a stride
//     (sim.SetSeqStride): seq = raw*stride + (stride-1), leaving
//     stride-1 free slots below each locally scheduled event.
//   - During a round each engine keeps a clock log (sim.ClockLog): the
//     raw counter at the first executed event of each timestamp.
//   - At the barrier, cross-region packets are injected into the
//     destination engine with an interpolated seq c + m, where c is the
//     destination's counter after everything it executed at or before
//     the packet's send time (looked up in the clock log; the counter
//     steps by the stride per schedule, so [c, c+stride-1) is free) and
//     m counts messages interpolated into the same gap. Arrivals
//     destined for the same gap keep the order of a global sort by
//     (send time, sender lineage, sender region, capture order), which
//     is partition-independent.
//
// The net effect: every cross-region propagation event fires in the
// destination region at the same clock time and in the same relative
// order as its serial counterpart, so the whole run is event-for-event
// identical. Identity is pinned by the shard identity tests (both §4
// phase modes, every shipped scenario) and a randomized property test.
//
// Mid-run link events (core.Config.Events) need no shard machinery at
// all: their routing consequences are precomputed at build time
// (topology.ApplyLinkChange on a clone) and scheduled as one callback
// per affected switch on that switch's own region engine. Build-time
// scheduling gives each callback a seq below every same-time packet
// event — in serial and per-region engines alike — and propagation
// delays never change, so the cut-delay lookahead L stays valid for the
// whole run.
//
// # Ownership transfer
//
// Packet pointers never cross a region boundary. When a cut port's
// packet finishes transmission, the edge captures it by value, releases
// the pointer to the source region's pool, and at the barrier the
// destination region materializes it from its own pool. Steady state
// allocates nothing: edge buffers and the per-region pools retain their
// capacity.
package shard

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

// Stride is the per-region seq stride: the number of seq slots per
// locally scheduled event, stride-1 of which are available for
// interpolating cross-region arrivals into one gap. 2^21 slots per gap
// is far beyond any physical burst (every absorbed arrival that
// executes schedules follow-up work, closing its gap), and leaves 2^43
// schedulable events per region per run before the counter wraps.
const Stride = 1 << 21

// batch is the event budget between cancellation checks inside a round,
// matching internal/core's progress batching.
const batch = 4096

// Region is one shard: an engine plus the synchronization state the
// coordinator keeps for it.
type Region struct {
	Eng *sim.Engine
	// Pool is the region's packet pool; nil under core's noPool test
	// mode (absorb then allocates).
	Pool *packet.Pool

	clock  sim.ClockLog
	endSeq uint64 // raw counter at the end of the current round
	outCtr uint64 // capture order across all of this region's out-edges
	// lastC/lastM continue seq interpolation across barriers: several
	// messages absorbed at the same destination counter c — possibly in
	// different rounds — take m = 0, 1, 2, ….
	lastC    uint64
	lastM    uint64
	haveLast bool
}

// Edge is the handoff for one direction of one cut link. It implements
// sim.PacketSink so a cut port's Config.Cross can point straight at it:
// Deliver captures the departing packet by value (with its send time,
// the sending engine's scheduling lineage, and a per-source-region
// capture counter), returns the pointer to the source pool, and leaves
// the copy buffered until the barrier.
type Edge struct {
	// Delay is the cut line's propagation delay.
	Delay time.Duration
	// To is the destination region index.
	To int
	// Dst is the receiver on the far side (the destination switch).
	Dst sim.PacketSink

	src  *Region // source region (set by NewRunner)
	from int
	buf  []msg
}

// msg is one captured packet plus its ordering key.
type msg struct {
	p        packet.Packet
	send     sim.Time // departure time (sending engine's clock at capture)
	schedAt  sim.Time // sending event's lineage, for partition-free ties
	schedAt2 sim.Time
	ctr      uint64 // capture order within the source region
}

// Deliver implements sim.PacketSink on the sending region's goroutine.
func (e *Edge) Deliver(p *packet.Packet) {
	r := e.src
	sa, sa2 := r.Eng.ExecLineage()
	e.buf = append(e.buf, msg{
		p: *p, send: r.Eng.Now(), schedAt: sa, schedAt2: sa2, ctr: r.outCtr,
	})
	r.outCtr++
	r.Pool.Put(p)
}

// inRef points at one buffered message during the barrier sort.
type inRef struct {
	e *Edge
	i int32
}

// Runner coordinates the regions: rounds, barriers, absorption.
type Runner struct {
	Regions []*Region
	Edges   []*Edge
	// Lookahead is the round length bound (min cut delay); 0 means the
	// regions never interact and rounds span the whole horizon.
	Lookahead time.Duration

	now    time.Duration
	cancel atomic.Bool
	// roundActive/roundEnd survive a mid-round cancellation so Span can
	// resume the same round without resetting the clock logs.
	roundActive bool
	roundEnd    time.Duration

	// workers holds one pre-built round closure per region and wg the
	// round barrier; both live on the Runner so launching a round
	// allocates nothing (`go f()` on an existing zero-argument func
	// value does not heap-allocate).
	workers []func()
	wg      sync.WaitGroup

	inbox []inRef
}

// NewRunner wires regions and edges. edges[i].To must index regions;
// from names each edge's source region.
func NewRunner(regions []*Region, edges []*Edge, from []int, lookahead time.Duration) *Runner {
	for i, e := range edges {
		e.src = regions[from[i]]
		e.from = from[i]
	}
	r := &Runner{Regions: regions, Edges: edges, Lookahead: lookahead}
	r.workers = make([]func(), len(regions))
	for i, reg := range regions {
		reg := reg
		r.workers[i] = func() {
			defer r.wg.Done()
			for !reg.Eng.RunUntilLoggedN(r.roundEnd, batch, &reg.clock) {
				if r.cancel.Load() {
					return
				}
			}
		}
	}
	return r
}

// Now returns the last barrier time.
func (r *Runner) Now() time.Duration { return r.now }

// Events returns the total number of events executed across all
// regions. At a barrier it equals the serial engine's Processed count.
func (r *Runner) Events() uint64 {
	var n uint64
	for _, reg := range r.Regions {
		n += reg.Eng.Processed()
	}
	return n
}

// Span advances every region to time t in lookahead-bounded rounds,
// calling atBarrier (if non-nil) after each completed barrier. A nil
// ctx never cancels; a canceled ctx makes Span return ctx.Err() at the
// next batch boundary, mid-round, with all state intact — a later Span
// resumes the interrupted round exactly where it stopped.
func (r *Runner) Span(ctx context.Context, t time.Duration, atBarrier func(now time.Duration, events uint64)) error {
	if ctx != nil {
		r.cancel.Store(false)
		stop := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				r.cancel.Store(true)
			case <-stop:
			}
		}()
		defer close(stop)
	}
	for r.now < t || r.roundActive {
		if !r.roundActive {
			end := t
			if r.Lookahead > 0 && r.now+r.Lookahead < t {
				end = r.now + r.Lookahead
			}
			r.roundEnd = end
			r.roundActive = true
			for _, reg := range r.Regions {
				reg.clock.Reset()
			}
		}
		r.runRound()
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, reg := range r.Regions {
			reg.endSeq = reg.Eng.SeqCounter()
		}
		r.absorb()
		r.now = r.roundEnd
		r.roundActive = false
		if atBarrier != nil {
			atBarrier(r.now, r.Events())
		}
	}
	return nil
}

// runRound runs every region to r.roundEnd on its own goroutine and
// waits for all of them. The WaitGroup is the barrier: its Wait orders
// every region's writes (edge buffers, clock logs) before the
// coordinator's reads, and the launching go statements order the
// coordinator's roundEnd write before every worker's read.
func (r *Runner) runRound() {
	r.wg.Add(len(r.workers))
	for _, w := range r.workers {
		go w()
	}
	r.wg.Wait()
}

// absorb injects every packet captured this round into its destination
// region, in the partition-independent order described in the package
// comment, then clears the edge buffers.
func (r *Runner) absorb() {
	for dstIdx, dst := range r.Regions {
		r.inbox = r.inbox[:0]
		for _, e := range r.Edges {
			if e.To != dstIdx {
				continue
			}
			for i := range e.buf {
				r.inbox = append(r.inbox, inRef{e: e, i: int32(i)})
			}
		}
		if len(r.inbox) == 0 {
			continue
		}
		slices.SortFunc(r.inbox, func(a, b inRef) int {
			ma, mb := &a.e.buf[a.i], &b.e.buf[b.i]
			switch {
			case ma.send != mb.send:
				if ma.send < mb.send {
					return -1
				}
				return 1
			case ma.schedAt != mb.schedAt:
				if ma.schedAt < mb.schedAt {
					return -1
				}
				return 1
			case ma.schedAt2 != mb.schedAt2:
				if ma.schedAt2 < mb.schedAt2 {
					return -1
				}
				return 1
			case a.e.from != b.e.from:
				return a.e.from - b.e.from
			case ma.ctr != mb.ctr:
				if ma.ctr < mb.ctr {
					return -1
				}
				return 1
			}
			return 0
		})
		for _, ref := range r.inbox {
			m := &ref.e.buf[ref.i]
			// c is the destination's seq counter after everything it
			// executed at or before the send time: locally scheduled
			// events around the gap have seqs <= c-1 and >= c+Stride-1,
			// so the arrival slots in at c+m exactly where the serial
			// engine's shared counter would have put its propagation
			// event.
			c := dst.clock.SeqAfter(m.send, dst.endSeq)
			if dst.haveLast && c == dst.lastC {
				dst.lastM++
			} else {
				dst.lastC, dst.lastM, dst.haveLast = c, 0, true
			}
			if dst.lastM >= Stride-1 {
				panic("shard: seq interpolation gap exhausted")
			}
			q := dst.Pool.Get()
			*q = m.p
			// The serial propagation event was scheduled at the send
			// time by an exec whose own schedAt is the sender's lineage.
			dst.Eng.InjectPacketAt(m.send+ref.e.Delay, c+dst.lastM, m.send, m.schedAt, ref.e.Dst, q)
		}
	}
	for _, e := range r.Edges {
		e.buf = e.buf[:0]
	}
}
