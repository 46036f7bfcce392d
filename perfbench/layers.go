package main

import (
	"fmt"
	"runtime"
	"slices"

	"tcpdemux/internal/analytic"
	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/wire"
)

// layerCosts are the layers timed on their own, each over the same
// recorded frames the passes deliver, in ns per call.
type layerCosts struct {
	clock       float64 // one clock read, subtracted from every span
	parse       float64 // wire.ParseSegment per inbound frame
	parseAllocs float64 // heap allocations per ParseSegment
	extract     float64 // wire.ExtractTuple per inbound frame
	steer       float64 // shard.Steering.Shard per inbound frame
	ring        float64 // shard.Ring Push+Pop per inbound frame
	build       float64 // wire.BuildSegment per egress frame
}

var (
	segSink  *wire.Segment
	tupSink  wire.Tuple
	intSink  int
	byteSink []byte
)

// isolatedReps is how many times each isolated loop runs; the median
// repetition is reported.
const isolatedReps = 5

// timeLoop runs body over n items isolatedReps times and returns the
// median ns per item.
func timeLoop(n int, body func()) float64 {
	var reps []float64
	for r := 0; r < isolatedReps; r++ {
		t0 := clock()
		body()
		reps = append(reps, float64(clock()-t0)/float64(n))
	}
	return median(reps)
}

// measureLayers times the wire and shard layers in isolation over the
// recording's timed inbound frames and its egress.
func measureLayers(rec *recording, steer shard.Steering) (layerCosts, error) {
	lc := layerCosts{clock: clockCost()}
	var frames [][]byte
	for _, o := range rec.timed {
		if o.kind == opDeliver {
			frames = append(frames, rec.frames.at(int(o.arg)))
		}
	}
	tuples := make([]wire.Tuple, len(frames))
	for i, f := range frames {
		t, err := wire.ExtractTuple(f)
		if err != nil {
			return lc, err
		}
		tuples[i] = t
	}
	type built struct {
		ip      wire.IPv4Header
		tcp     wire.TCPHeader
		payload []byte
	}
	egress := make([]built, 0, rec.egress.n())
	for i := 0; i < rec.egress.n(); i++ {
		seg, err := wire.ParseSegment(rec.egress.at(i))
		if err != nil {
			return lc, err
		}
		egress = append(egress, built{
			ip: wire.IPv4Header{TTL: 64, Src: seg.IP.Src, Dst: seg.IP.Dst},
			tcp: wire.TCPHeader{
				SrcPort: seg.TCP.SrcPort, DstPort: seg.TCP.DstPort,
				Seq: seg.TCP.Seq, Ack: seg.TCP.Ack, Flags: seg.TCP.Flags, Window: seg.TCP.Window,
			},
			payload: seg.Payload,
		})
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	lc.parse = timeLoop(len(frames), func() {
		for _, f := range frames {
			segSink, _ = wire.ParseSegment(f)
		}
	})
	runtime.ReadMemStats(&ms)
	lc.parseAllocs = float64(ms.Mallocs-m0) / float64(isolatedReps*len(frames))
	lc.extract = timeLoop(len(frames), func() {
		for _, f := range frames {
			tupSink, _ = wire.ExtractTuple(f)
		}
	})
	lc.steer = timeLoop(len(tuples), func() {
		for _, t := range tuples {
			intSink += steer.Shard(t)
		}
	})
	ring := shard.NewRing[[]byte](shard.DefaultInboxCap)
	lc.ring = timeLoop(len(frames), func() {
		for _, f := range frames {
			ring.Push(f)
			byteSink, _ = ring.Pop()
		}
	})
	lc.build = timeLoop(len(egress), func() {
		for _, e := range egress {
			byteSink, _ = wire.BuildSegment(e.ip, e.tcp, e.payload)
		}
	})
	return lc, nil
}

// bareReplay is the figure-of-merit cross-check for tpca-paper: the same
// steered key sequence replayed through bare per-shard core tables, with
// no engine around them. The frame path must examine exactly as many
// PCBs, shard by shard, in every pass's timed window.
type bareReplay struct {
	lookups, examined []uint64 // per shard, over the timed ops
	conns             []int    // connections per shard
	modelRatio        float64  // observed / analytic Sequent prediction
	lines             []string
}

func replayBare(rec *recording, steer shard.Steering) (*bareReplay, error) {
	sel, err := discipline.Select("sequent", "multiplicative", rec.cfg.chains)
	if err != nil {
		return nil, err
	}
	n := rec.cfg.shards
	b := &bareReplay{lookups: make([]uint64, n), examined: make([]uint64, n), conns: make([]int, n)}
	tables := make([]core.Demuxer, n)
	for i := range tables {
		if tables[i], err = sel.New(); err != nil {
			return nil, err
		}
		if err := tables[i].Insert(core.NewListenPCB(core.ListenKey(serverAddr, listenPort))); err != nil {
			return nil, err
		}
	}
	replay := func(ops []op, timed bool) error {
		for _, o := range ops {
			if o.kind != opDeliver {
				continue
			}
			seg, err := wire.ParseSegment(rec.frames.at(int(o.arg)))
			if err != nil {
				return err
			}
			tup := seg.Tuple()
			s, key := steer.Shard(tup), core.KeyFromTuple(tup)
			dir := core.DirData
			if len(seg.Payload) == 0 && seg.TCP.Flags&(wire.FlagSYN|wire.FlagFIN|wire.FlagRST) == 0 {
				dir = core.DirAck
			}
			r := tables[s].Lookup(key, dir)
			if r.Wildcard && seg.TCP.Flags&(wire.FlagSYN|wire.FlagACK) == wire.FlagSYN {
				if err := tables[s].Insert(core.NewPCB(key)); err != nil {
					return err
				}
				b.conns[s]++
			}
			if timed {
				b.lookups[s]++
				b.examined[s] += uint64(r.Examined)
			}
		}
		return nil
	}
	if err := replay(rec.setup, false); err != nil {
		return nil, err
	}
	if err := replay(rec.timed, true); err != nil {
		return nil, err
	}

	var examined, predicted float64
	b.lines = append(b.lines, "figure of merit, PCBs examined per lookup (bare per-shard replay = frame path):")
	for s := 0; s < n; s++ {
		pred, err := analytic.Sequent(analytic.Params{N: b.conns[s], R: tpcaResponse, D: tpcaRTT, H: rec.cfg.chains})
		if err != nil {
			return nil, err
		}
		obs := ratio(float64(b.examined[s]), float64(b.lookups[s]))
		b.lines = append(b.lines, fmt.Sprintf("  shard %d: N=%d H=%d observed %.2f, analytic Sequent %.2f (ratio %.3f)",
			s, b.conns[s], rec.cfg.chains, obs, pred, ratio(obs, pred)))
		examined += float64(b.examined[s])
		predicted += pred * float64(b.lookups[s])
	}
	b.modelRatio = ratio(examined, predicted)
	return b, nil
}

// check compares one pass's frame-path examination counts with the bare
// replay and records any difference as a failure.
func (b *bareReplay) check(ps *passStats) {
	if !slices.Equal(ps.lookups, b.lookups) || !slices.Equal(ps.examined, b.examined) {
		ps.fail(1, "frame-path lookups/examined %v/%v differ from the bare per-shard replay %v/%v",
			ps.lookups, ps.examined, b.lookups, b.examined)
	}
}
