package telemetry

import (
	"io"
	"sort"
	"sync"

	"tcpdemux/internal/trace"
	"tcpdemux/internal/wire"
)

// DropReason classifies why a delivered frame produced no connection
// progress — the engine's per-reason drop taxonomy, carried on flight
// events so a drop's tuple and timing survive next to its counter.
type DropReason uint8

// Drop reasons, mirroring engine.StackStats.
const (
	DropNone DropReason = iota
	DropBadChecksum
	DropBadFrame
	DropNoRoute
	DropNoListener
	DropRST
	DropBacklogFull
	DropBadCookie
)

// String names the reason.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropBadChecksum:
		return "bad-checksum"
	case DropBadFrame:
		return "bad-frame"
	case DropNoRoute:
		return "no-route"
	case DropNoListener:
		return "no-listener"
	case DropRST:
		return "rst"
	case DropBacklogFull:
		return "backlog-full"
	case DropBadCookie:
		return "bad-cookie"
	}
	return "unknown"
}

// Event is one demultiplexing event in the flight recorder: what a
// kernel's packet-trace ring would capture about the lookup step.
type Event struct {
	// Time is the event's virtual timestamp; Seq is the recorder-assigned
	// global sequence number. (Time, Seq) totally orders a drained run.
	Time float64
	Seq  uint64
	// Tuple identifies the packet's connection (inbound orientation).
	Tuple wire.Tuple
	// Discipline names the demuxer that served the lookup.
	Discipline string
	// Chain is the hash chain probed, or -1 when the structure has no
	// chain notion (or the recording caller does not know it).
	Chain int32
	// Examined is the PCBs-touched count for the lookup.
	Examined int32
	// Hit marks a one-entry-cache hit; Wildcard a listener match; Miss a
	// lookup that found no PCB; Ack a pure-acknowledgement lookup.
	Hit      bool
	Wildcard bool
	Miss     bool
	Ack      bool
	// Drop is the disposition of the packet after the lookup (DropNone
	// when it progressed a connection).
	Drop DropReason
}

// FlightRecorder keeps the most recent demux events in one
// fixed-capacity ring. Record is zero-alloc (the ring is pre-allocated)
// and takes the ring's mutex, so any goroutine may record; Drain
// returns the retained events in deterministic (time, seq) order and
// resets the ring.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
}

// NewFlightRecorder builds a recorder keeping the capacity most recent
// events. capacity below 16 is raised to 16.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{buf: make([]Event, max(capacity, 16))}
}

// Record appends one event, assigning its sequence number. When the
// ring is full the oldest event is overwritten — flight-recorder
// semantics: the recent past is what matters.
//
//demux:hotpath
func (fr *FlightRecorder) Record(e Event) {
	fr.mu.Lock()
	e.Seq = fr.seq
	fr.seq++
	fr.buf[fr.next] = e
	fr.next++
	if fr.next == len(fr.buf) {
		fr.next = 0
		fr.full = true
	}
	fr.mu.Unlock()
}

// Drain collects every retained event, sorted by (Time, Seq), and
// resets the ring. Seq is unique per event, so the order is total and
// the output deterministic for a deterministic event stream.
func (fr *FlightRecorder) Drain() []Event {
	fr.mu.Lock()
	var out []Event
	if fr.full {
		out = append(out, fr.buf[fr.next:]...)
	}
	out = append(out, fr.buf[:fr.next]...)
	fr.next = 0
	fr.full = false
	fr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ExportTrace writes drained events in the internal/trace binary format,
// so a flight-recorder capture replays through trace.Replay exactly like
// a recorded workload stream. Only the fields the trace format carries
// (time, tuple, ack) survive the export.
func ExportTrace(w io.Writer, events []Event) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := tw.Write(trace.Event{Time: e.Time, Tuple: e.Tuple, Ack: e.Ack}); err != nil {
			return err
		}
	}
	return tw.Flush()
}
