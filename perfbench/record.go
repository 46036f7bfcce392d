package main

import (
	"bytes"
	"fmt"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/server"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/tpca"
	"tcpdemux/internal/wire"
)

// The in-process workloads are recorded once, in set-up, by driving a
// real StackSet with a client model that builds every inbound frame and
// checks every response against a server.Ledger oracle. The timed passes
// then replay the recorded frames against fresh StackSets built with the
// same seed, so client-side frame building stays out of the timed region
// and every pass must reproduce the recorded egress byte for byte.

// opKind is one call into the program during a replay.
type opKind uint8

const (
	opDeliver opKind = iota // StackSet.Deliver(frames[arg])
	opTick                  // StackSet.Tick(now)
	opRelease               // StackSet.Release(keys[arg])
)

// op is one recorded program call. txn is the transaction whose service
// time the call is charged to, or -1 (ticks, set-up handshakes).
type op struct {
	kind opKind
	arg  int32
	txn  int32
	now  float64
}

// stackConfig is the StackSet shape a recording was made against.
type stackConfig struct {
	shards int
	chains int
	seed   uint64
}

// frameSet is a sequence of frames in one contiguous buffer: the
// garbage collector sees two pointer-free objects however many frames a
// recording holds, so collections during a pass cost what the program's
// own heap costs.
type frameSet struct {
	buf  []byte
	ends []int32
}

func (s *frameSet) add(f []byte) {
	s.buf = append(s.buf, f...)
	s.ends = append(s.ends, int32(len(s.buf)))
}

func (s *frameSet) n() int { return len(s.ends) }

// at returns frame i; its capacity ends with the frame.
func (s *frameSet) at(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.buf[start:s.ends[i]:s.ends[i]]
}

func (s *frameSet) reset() {
	s.buf = s.buf[:0]
	s.ends = s.ends[:0]
}

// recording is one workload's input and expected output.
type recording struct {
	cfg    stackConfig
	setup  []op // connection establishment, before timing
	timed  []op
	frames frameSet
	keys   []core.Key
	// egress is every frame the program emitted while recording, set-up
	// included, in emission order; each oracle-checked response is in it.
	egress frameSet
	conns  int // connections established by the set-up ops
	txns   int // transactions in the timed ops
}

// listenPort is the TPC/A service port inside the synthetic stack.
const listenPort = server.ServicePort

// serverAddr is the in-process endpoint's address; tpca's user keys
// name it as their local end.
var serverAddr = tpca.ServerAddr.Addr

// newSet builds a StackSet of the recorded shape: the sequent discipline
// over multiplicative-hash chains (demuxd's default table), each shard's
// table optionally wrapped (the tracing decorator).
func newSet(cfg stackConfig, wrap func(core.Demuxer) core.Demuxer) (*shard.StackSet, error) {
	sel, err := discipline.Select("sequent", "multiplicative", cfg.chains)
	if err != nil {
		return nil, err
	}
	perShard := sel.PerShard()
	return shard.NewStackSet(serverAddr, shard.Config{
		Shards: cfg.shards,
		Seed:   cfg.seed,
		NewDemuxer: func(i int) core.Demuxer {
			d := perShard(i)
			if wrap != nil {
				d = wrap(d)
			}
			return d
		},
	})
}

// tpcaHandler is the TPC/A application the in-process workloads serve:
// one request line per data segment, applied to a ledger.
func tpcaHandler(l *server.Ledger) engine.Handler {
	return func(_ *engine.Conn, payload []byte) []byte {
		req, err := server.ParseRequest(bytes.TrimSuffix(payload, []byte("\n")))
		if err != nil {
			return server.FormatError(err.Error())
		}
		a, t, b := l.Apply(req)
		return server.FormatResponse(req.Account, a, t, b)
	}
}

// client is the remote end of one synthetic connection.
type client struct {
	tup    wire.Tuple // inbound direction: Src is the client
	key    int32      // index into recording.keys
	snd    uint32     // client's next sequence number
	rcv    uint32     // next server sequence number expected
	branch uint32
	teller uint32
}

func (c *client) frame(flags uint8, payload []byte) ([]byte, error) {
	ip := wire.IPv4Header{TTL: 64, Src: c.tup.SrcAddr, Dst: c.tup.DstAddr}
	tcp := wire.TCPHeader{
		SrcPort: c.tup.SrcPort, DstPort: c.tup.DstPort,
		Seq: c.snd, Ack: c.rcv, Flags: flags, Window: 65535,
	}
	f, err := wire.BuildSegment(ip, tcp, payload)
	if err != nil {
		return nil, err
	}
	c.snd += uint32(len(payload))
	if flags&(wire.FlagSYN|wire.FlagFIN) != 0 {
		c.snd++
	}
	return f, nil
}

// recorder drives a live StackSet while recording.
type recorder struct {
	rec    *recording
	set    *shard.StackSet
	out    [][]byte // egress of the call in progress
	oracle *server.Ledger
	src    *rng.Source
	inTime bool // ops go to rec.timed rather than rec.setup
	// accounts bounds the account ids requests draw from.
	accounts int
}

func newRecorder(cfg stackConfig, src *rng.Source, accounts int) (*recorder, error) {
	set, err := newSet(cfg, nil)
	if err != nil {
		return nil, err
	}
	r := &recorder{
		rec:      &recording{cfg: cfg},
		set:      set,
		oracle:   server.NewLedger(),
		src:      src,
		accounts: accounts,
	}
	set.SetEgressTap(func(f []byte) { r.out = append(r.out, f) })
	if err := set.Listen(listenPort, tpcaHandler(server.NewLedger())); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *recorder) add(o op) {
	if r.inTime {
		r.rec.timed = append(r.rec.timed, o)
	} else {
		r.rec.setup = append(r.rec.setup, o)
	}
}

// newClient opens the remote end of a connection with the given inbound
// tuple; its ISS comes from the recording's seed.
func (r *recorder) newClient(tup wire.Tuple, branch, teller uint32) *client {
	r.rec.keys = append(r.rec.keys, core.KeyFromTuple(tup))
	return &client{
		tup: tup, key: int32(len(r.rec.keys) - 1),
		snd: uint32(r.src.Uint64()), branch: branch, teller: teller,
	}
}

// deliver records and delivers one inbound frame, then parses the egress
// it produced and checks it against want, one predicate per expected
// egress frame.
func (r *recorder) deliver(frame []byte, txn int32, want ...func(*wire.Segment) error) error {
	r.rec.frames.add(frame)
	idx := r.rec.frames.n() - 1
	r.add(op{kind: opDeliver, arg: int32(idx), txn: txn})
	r.out = r.out[:0]
	if _, err := r.set.Deliver(frame); err != nil {
		return fmt.Errorf("deliver: %w", err)
	}
	for _, f := range r.out {
		r.rec.egress.add(f)
	}
	if len(r.out) != len(want) {
		return fmt.Errorf("frame %d: %d egress frames, want %d", idx, len(r.out), len(want))
	}
	for i, f := range r.out {
		seg, err := wire.ParseSegment(f)
		if err != nil {
			return fmt.Errorf("egress parse: %w", err)
		}
		if err := want[i](seg); err != nil {
			return fmt.Errorf("frame %d: %w", idx, err)
		}
	}
	return nil
}

func (r *recorder) tick(now float64) {
	r.add(op{kind: opTick, txn: -1, now: now})
	r.out = r.out[:0]
	r.set.Tick(now)
	for _, f := range r.out {
		r.rec.egress.add(f)
	}
}

func (r *recorder) release(c *client, txn int32) {
	r.add(op{kind: opRelease, arg: c.key, txn: txn})
	r.set.Release(r.rec.keys[c.key])
}

// expect builds an egress predicate: the segment must carry exactly
// flags, acknowledge the client's next sequence number, and (when
// payload is non-nil) carry exactly payload. On success it advances the
// client's receive point past the segment.
func expect(c *client, flags uint8, payload []byte) func(*wire.Segment) error {
	return func(seg *wire.Segment) error {
		if seg.TCP.Flags != flags {
			return fmt.Errorf("egress flags %s, want %s", wire.FlagNames(seg.TCP.Flags), wire.FlagNames(flags))
		}
		if seg.TCP.Ack != c.snd {
			return fmt.Errorf("egress ack %d, want %d", seg.TCP.Ack, c.snd)
		}
		if !bytes.Equal(seg.Payload, payload) {
			return fmt.Errorf("response %q, oracle wants %q", seg.Payload, payload)
		}
		c.rcv = seg.TCP.Seq + uint32(len(seg.Payload))
		if flags&(wire.FlagSYN|wire.FlagFIN) != 0 {
			c.rcv++
		}
		return nil
	}
}

// connect runs the three-way handshake.
func (r *recorder) connect(c *client, txn int32) error {
	syn, err := c.frame(wire.FlagSYN, nil)
	if err != nil {
		return err
	}
	if err := r.deliver(syn, txn, expect(c, wire.FlagSYN|wire.FlagACK, nil)); err != nil {
		return err
	}
	ack, err := c.frame(wire.FlagACK, nil)
	if err != nil {
		return err
	}
	return r.deliver(ack, txn)
}

// request sends one TPC/A transaction and checks the response against
// the oracle ledger.
func (r *recorder) request(c *client, txn int32) error {
	req := server.Req{
		Branch: c.branch, Teller: c.teller,
		Account: uint32(r.src.Intn(r.accounts)),
		Delta:   int64(r.src.Intn(1999) - 999),
	}
	line := server.FormatRequest(req.Branch, req.Teller, req.Account, req.Delta)
	f, err := c.frame(wire.FlagACK|wire.FlagPSH, line)
	if err != nil {
		return err
	}
	return r.deliver(f, txn, expect(c, wire.FlagACK|wire.FlagPSH, r.oracle.Expected(req)))
}

// ackResponse acknowledges the last response.
func (r *recorder) ackResponse(c *client, txn int32) error {
	f, err := c.frame(wire.FlagACK, nil)
	if err != nil {
		return err
	}
	return r.deliver(f, txn)
}

// close runs the client-initiated close and releases the server's claim
// on the tuple, as the serving frontend does when a session ends.
func (r *recorder) close(c *client, txn int32) error {
	fin, err := c.frame(wire.FlagFIN|wire.FlagACK, nil)
	if err != nil {
		return err
	}
	if err := r.deliver(fin, txn, expect(c, wire.FlagFIN|wire.FlagACK, nil)); err != nil {
		return err
	}
	ack, err := c.frame(wire.FlagACK, nil)
	if err != nil {
		return err
	}
	if err := r.deliver(ack, txn); err != nil {
		return err
	}
	r.release(c, txn)
	return nil
}

// finish checks the recording StackSet's ledger and returns the
// recording.
func (r *recorder) finish() (*recording, error) {
	if acc := r.set.Accounting(); !acc.Balanced() || acc.Shed != 0 {
		return nil, fmt.Errorf("recording ledger: %+v", acc)
	}
	return r.rec, nil
}

// tpcaParams is the paper's operating point.
type tpcaParams struct {
	users  int // N
	txns   int // transactions per recorded pass
	shards int
	chains int
}

const (
	tpcaResponse = 0.2   // R, seconds
	tpcaRTT      = 0.001 // D, seconds
	tickEvery    = 0.01  // virtual seconds between StackSet.Tick calls
)

// recordTPCA records the tpca-paper workload: every user connects in
// set-up, then the inbound order follows tpca.Run's Observer schedule —
// each transaction's request, and its acknowledgement of the response
// R + D later, interleaved with every other user's as the TPC/A think
// times dictate.
func recordTPCA(seed uint64, p tpcaParams) (*recording, error) {
	idx := make(map[core.Key]int32, p.users)
	for i := 0; i < p.users; i++ {
		idx[tpca.UserKey(i)] = int32(i)
	}
	type arrival struct {
		t    float64
		user int32
		ack  bool
	}
	var sched []arrival
	_, err := tpca.Run(core.NewMapDemux(), tpca.Config{
		Users: p.users, ResponseTime: tpcaResponse, RTT: tpcaRTT, Seed: seed,
		WarmupTxns: 1, MeasuredTxns: p.txns - 1,
		Observer: func(t float64, key core.Key, send, ack bool) {
			if !send {
				sched = append(sched, arrival{t, idx[key], ack})
			}
		},
	})
	if err != nil {
		return nil, err
	}

	r, err := newRecorder(stackConfig{p.shards, p.chains, seed}, rng.New(seed^0x7063_6170), p.users*10)
	if err != nil {
		return nil, err
	}
	clients := make([]*client, p.users)
	for i := range clients {
		c := r.newClient(tpca.UserKey(i).Tuple(), uint32(i/10), uint32(i))
		if err := r.connect(c, -1); err != nil {
			return nil, fmt.Errorf("user %d handshake: %w", i, err)
		}
		clients[i] = c
	}
	r.rec.conns = p.users

	r.inTime = true
	pending := make([]int32, p.users)
	next := tickEvery
	for _, a := range sched {
		for ; next <= a.t; next += tickEvery {
			r.tick(next)
		}
		c := clients[a.user]
		if a.ack {
			err = r.ackResponse(c, pending[a.user])
		} else {
			pending[a.user] = int32(r.rec.txns)
			r.rec.txns++
			err = r.request(c, pending[a.user])
		}
		if err != nil {
			return nil, fmt.Errorf("user %d: %w", a.user, err)
		}
	}
	return r.finish()
}

// churnParams shapes the churn workload (and the live-shaped replay).
type churnParams struct {
	clients  int
	txns     int // transactions per recorded pass
	minBurst int // transactions per connection, drawn uniformly
	maxBurst int
	shards   int
	chains   int
}

const churnStep = 10e-6 // virtual seconds per client step

// churnTuple is connection n's inbound tuple: every reconnect comes back
// from a fresh address and port.
func churnTuple(n int) wire.Tuple {
	return wire.Tuple{
		SrcAddr: wire.MakeAddr(172, byte(16+n>>16), byte(n>>8), byte(n)),
		DstAddr: serverAddr,
		SrcPort: uint16(1024 + n%60000),
		DstPort: listenPort,
	}
}

// recordChurn records the churn workload: each client connects, runs a
// short burst of transactions, closes, and comes back on a fresh tuple.
// Every step picks a random live client, so lifecycles interleave. A
// connection's handshake is charged to its first transaction and its
// close (FIN, final ACK, Release) to its last.
func recordChurn(seed uint64, p churnParams) (*recording, error) {
	src := rng.New(seed ^ 0x6368_7572)
	r, err := newRecorder(stackConfig{p.shards, p.chains, seed}, src, p.clients*8)
	if err != nil {
		return nil, err
	}
	const (
		stSyn = iota
		stRequest
		stAck
		stClose
	)
	type state struct {
		c           *client
		st          int
		first, last int32 // transaction ids of this connection
		cur         int32
	}
	opened := 0
	reserved := 0
	open := func(s *state) {
		b := p.minBurst + src.Intn(p.maxBurst-p.minBurst+1)
		s.c = r.newClient(churnTuple(opened), s.c.branch, s.c.teller)
		opened++
		s.first, s.last, s.cur = int32(reserved), int32(reserved+b-1), int32(reserved)
		reserved += b
	}
	active := make([]*state, p.clients)
	for i := range active {
		s := &state{c: &client{branch: uint32(i), teller: uint32(i)}}
		open(s)
		if err := r.connect(s.c, -1); err != nil {
			return nil, fmt.Errorf("client %d handshake: %w", i, err)
		}
		s.st = stRequest
		active[i] = s
	}
	r.rec.conns = p.clients

	r.inTime = true
	now, next := 0.0, 1e-3
	for len(active) > 0 {
		now += churnStep
		for ; next <= now; next += 1e-3 {
			r.tick(next)
		}
		i := src.Intn(len(active))
		s := active[i]
		switch s.st {
		case stSyn:
			err = r.connect(s.c, s.first)
			s.st = stRequest
		case stRequest:
			err = r.request(s.c, s.cur)
			s.st = stAck
		case stAck:
			err = r.ackResponse(s.c, s.cur)
			if s.cur == s.last {
				s.st = stClose
			} else {
				s.cur++
				s.st = stRequest
			}
		case stClose:
			err = r.close(s.c, s.last)
			if reserved >= p.txns {
				active[i] = active[len(active)-1]
				active = active[:len(active)-1]
				break
			}
			open(s)
			s.st = stSyn
		}
		if err != nil {
			return nil, fmt.Errorf("client %s: %w", s.c.tup, err)
		}
	}
	r.rec.txns = reserved
	return r.finish()
}
