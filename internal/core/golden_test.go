package core

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"tcpdemux/internal/wire"
)

// goldenFOM pins one list-based discipline's behaviour on the seeded
// stream of goldenStream: every lookup's Result (returned PCB, Examined,
// CacheHit, Wildcard) folded in order into trace, every Insert/Remove
// outcome and Walk/WalkChain/WalkListeners/ChainLengths visit order
// folded into walks, and the final Stats. The values were recorded
// before the lists moved to contiguous slot arrays; a storage change
// must not move any of them.
type goldenFOM struct {
	lookups int
	trace   uint64
	walks   uint64
	stats   Stats
}

// String renders g as the goldenFOMWant literal it must equal.
func (g goldenFOM) String() string {
	s := g.stats
	return fmt.Sprintf("{lookups: %d, trace: %#x, walks: %#x, stats: Stats{Lookups: %d, Hits: %d, Misses: %d, WildcardHits: %d, Examined: %d, MaxExamined: %d}}",
		g.lookups, g.trace, g.walks, s.Lookups, s.Hits, s.Misses, s.WildcardHits, s.Examined, s.MaxExamined)
}

var goldenFOMWant = map[string]goldenFOM{
	"sequent":      {lookups: 3079, trace: 0xffda2cc2807c9d5e, walks: 0xbbca70626a6065ce, stats: Stats{Lookups: 3079, Hits: 260, Misses: 622, WildcardHits: 382, Examined: 142272, MaxExamined: 202}},
	"mtf-hash":     {lookups: 3079, trace: 0x7a8c6c318ef19a78, walks: 0xd27c3e23a01188db, stats: Stats{Lookups: 3079, Hits: 0, Misses: 622, WildcardHits: 382, Examined: 139665, MaxExamined: 201}},
	"bsd":          {lookups: 3079, trace: 0x49c9e8c37400571a, walks: 0x34a389411cddc6c0, stats: Stats{Lookups: 3079, Hits: 69, Misses: 622, WildcardHits: 382, Examined: 962361, MaxExamined: 1231}},
	"mtf":          {lookups: 3079, trace: 0x5f205a2983f61b95, walks: 0x7826648bc8dd4001, stats: Stats{Lookups: 3079, Hits: 0, Misses: 622, WildcardHits: 382, Examined: 957762, MaxExamined: 1230}},
	"sr":           {lookups: 3079, trace: 0xc8858ad6954557a, walks: 0x34a389411cddc6c0, stats: Stats{Lookups: 3079, Hits: 99, Misses: 622, WildcardHits: 382, Examined: 965101, MaxExamined: 1232}},
	"auto-sequent": {lookups: 3079, trace: 0xedd75a49f8b2c540, walks: 0x4865ba9aa54fc2c4, stats: Stats{Lookups: 3079, Hits: 449, Misses: 622, WildcardHits: 382, Examined: 18043, MaxExamined: 22}},
	"direct-index": {lookups: 3079, trace: 0x16fbea01dfd7da46, walks: 0x847b1fd7e6fa09bc, stats: Stats{Lookups: 3079, Hits: 0, Misses: 622, WildcardHits: 382, Examined: 4770, MaxExamined: 5}},
	"map":          {lookups: 3079, trace: 0x2ebc28ffc607d344, walks: 0xfdc103a6e8c50eab, stats: Stats{Lookups: 3079, Hits: 0, Misses: 622, WildcardHits: 382, Examined: 5774, MaxExamined: 6}},
}

// goldenConfig builds the discipline under test. Chained tables get few
// chains so chains run long; auto-sequent starts at two chains so it
// rehashes several times as the population grows.
func goldenConfig(name string) Config {
	switch name {
	case "sequent", "mtf-hash":
		return Config{Chains: 7}
	case "auto-sequent":
		return Config{Chains: 2}
	}
	return Config{}
}

// goldenListenKeys are the listeners the stream registers, of every
// wildcard specificity Match scores: any address, one address, and one
// address plus one remote host.
func goldenListenKeys() []Key {
	l1, l2 := addr(10, 0, 0, 1), addr(10, 0, 0, 2)
	return []Key{
		ListenKey(wire.Addr{}, 80),
		ListenKey(l1, 80),
		{LocalAddr: l1, LocalPort: 1521, RemoteAddr: addr(10, 1, 0, 7)},
		ListenKey(l2, 1521),
		ListenKey(wire.Addr{}, 8080),
	}
}

// goldenRecorder folds a discipline's observable behaviour into the
// goldenFOM digests.
type goldenRecorder struct {
	d       Demuxer
	lookups int
	trace   hash.Hash64
	walks   hash.Hash64
}

func pcbID(p *PCB) int {
	if p == nil {
		return -1
	}
	return p.UserData.(int)
}

func (g *goldenRecorder) lookup(k Key, dir Direction) Result {
	r := g.d.Lookup(k, dir)
	g.lookups++
	fmt.Fprintf(g.trace, "%d %d %t %t;", pcbID(r.PCB), r.Examined, r.CacheHit, r.Wildcard)
	return r
}

func (g *goldenRecorder) note(format string, args ...any) {
	fmt.Fprintf(g.walks, format, args...)
}

// walk records every visit order the discipline exposes.
func (g *goldenRecorder) walk() {
	visit := func(p *PCB) bool {
		g.note("%d,", pcbID(p))
		return true
	}
	g.note("walk:")
	g.d.Walk(visit)
	switch d := g.d.(type) {
	case *SequentHash:
		for i := 0; i < d.NumChains(); i++ {
			g.note("chain%d:", i)
			d.WalkChain(i, visit)
		}
		g.note("listen:")
		d.WalkListeners(visit)
	case *AutoSequent:
		g.note("chains:%v", d.ChainLengths())
	}
	// An early stop must stop: visit the first two PCBs only.
	n := 0
	g.note("stop:")
	g.d.Walk(func(p *PCB) bool {
		g.note("%d,", pcbID(p))
		n++
		return n < 2
	})
	g.note("len:%d;", g.d.Len())
}

// goldenStream drives d through a seeded mix of connection inserts and
// removes, listener churn, lookups in both directions for live, removed
// and never-seen keys, and transmissions (NotifySend), with periodic
// walks.
func goldenStream(d Demuxer) goldenFOM {
	g := &goldenRecorder{d: d, trace: fnv.New64a(), walks: fnv.New64a()}
	src := newTestRNG(0x9e3779b97f4a7c15)
	nextID := 0
	newPCB := func(k Key, listen bool) *PCB {
		p := NewPCB(k)
		if listen {
			p = NewListenPCB(k)
		}
		p.UserData = nextID
		nextID++
		return p
	}
	locals := []wire.Addr{addr(10, 0, 0, 1), addr(10, 0, 0, 2)}
	ports := []uint16{80, 1521, 8080, 9999}
	randKey := func() Key {
		return Key{
			LocalAddr:  locals[src.Intn(len(locals))],
			LocalPort:  ports[src.Intn(len(ports))],
			RemoteAddr: addr(10, 1, byte(src.Intn(4)), byte(src.Intn(256))),
			RemotePort: uint16(1024 + src.Intn(64)),
		}
	}
	randDir := func() Direction {
		if src.Intn(2) == 0 {
			return DirAck
		}
		return DirData
	}

	listenKeys := goldenListenKeys()
	listening := make([]bool, len(listenKeys))
	for i, k := range listenKeys {
		if i%2 == 0 {
			g.note("L+%t;", d.Insert(newPCB(k, true)) == nil)
			listening[i] = true
		}
	}
	var live []*PCB
	var gone []Key
	for op := 0; op < 6000; op++ {
		switch x := src.Intn(100); {
		case x < 30: // open a connection; a clashing key is refused
			p := newPCB(randKey(), false)
			err := d.Insert(p)
			g.note("I%d:%t;", pcbID(p), err == nil)
			if err == nil {
				live = append(live, p)
			}
		case x < 40 && len(live) > 0: // close a connection
			i := src.Intn(len(live))
			k := live[i].Key
			g.note("R%d:%t;", pcbID(live[i]), d.Remove(k))
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			gone = append(gone, k)
		case x < 75 && len(live) > 0: // a segment for a live connection
			// Recently opened connections are favoured half the time so
			// caches and move-to-front see repeat traffic.
			i := src.Intn(len(live))
			if src.Intn(2) == 0 {
				i = len(live) - 1 - src.Intn(min(len(live), 8))
			}
			r := g.lookup(live[i].Key, randDir())
			if r.PCB != nil && src.Intn(3) == 0 {
				d.NotifySend(r.PCB)
			}
		case x < 88: // a segment for a never-seen connection
			g.lookup(randKey(), randDir())
		case x < 92 && len(gone) > 0: // a late segment for a closed one
			g.lookup(gone[src.Intn(len(gone))], randDir())
		case x < 95: // listener churn
			i := src.Intn(len(listenKeys))
			if listening[i] {
				g.note("LR%d:%t;", i, d.Remove(listenKeys[i]))
			} else {
				g.note("LI%d:%t;", i, d.Insert(newPCB(listenKeys[i], true)) == nil)
			}
			listening[i] = !listening[i]
		case x < 97 && len(live) > 0: // a repeated open and a stale close
			g.note("D:%t;", d.Insert(newPCB(live[src.Intn(len(live))].Key, false)) == nil)
			if len(gone) > 0 {
				g.note("G:%t;", d.Remove(gone[src.Intn(len(gone))]))
			}
		default:
			g.walk()
		}
	}
	g.walk()
	return goldenFOM{lookups: g.lookups, trace: g.trace.Sum64(), walks: g.walks.Sum64(), stats: *d.Stats()}
}

// TestGoldenFigureOfMerit pins every list-based discipline's per-lookup
// figure of merit, cache behaviour, returned PCB, final statistics and
// walk orders on one seeded stream. A change to how lists are stored
// must leave all of it identical.
func TestGoldenFigureOfMerit(t *testing.T) {
	for name, want := range goldenFOMWant {
		t.Run(name, func(t *testing.T) {
			d, err := New(name, goldenConfig(name))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenStream(d)
			if got != want {
				t.Errorf("figure of merit changed:\n got  %q: %s\n want %q: %s", name, got, name, want)
			}
		})
	}
}
