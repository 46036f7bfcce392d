package flat

import (
	"tcpdemux/internal/core"
)

// This file is the software-pipelined batch lookup path. The per-packet
// path resolves a packet and only then computes the next packet's hash —
// so every probe-group load sits on the critical path, and the CPU
// stalls for the full memory latency of any group not already cached.
// The batch path breaks that serialization the way Jiang et al.'s
// pipelined hash tables do (PAPERS.md): pass 1 hashes the whole train
// (pure arithmetic, no memory dependence), then the resolution loop
// issues a prefetch for the probe group packet i+k will need before
// resolving packet i. By the time the pipeline reaches packet i+k its
// window is (ideally) already in cache, overlapping k resolutions with
// each group's memory latency.
//
// The contract is core.Batcher's: the Result sequence and the statistics
// it folds are identical to calling Lookup once per key in order — the
// batch conformance test asserts this byte for byte, and it holds by
// construction because both paths resolve through the same lookupHashed
// and fold through the same core.Stats.Record.

// hashTrain fills the scratch hash buffer for a train and returns it.
//
//demux:hotpath
func (c *tableCommon) hashTrain(keys []core.Key) []uint32 {
	if cap(c.scratch) < len(keys) {
		c.scratch = make([]uint32, len(keys)) //demux:allowalloc amortized: grows the table-owned hash scratch once, then reused across trains
	}
	hs := c.scratch[:len(keys)]
	for i, k := range keys {
		hs[i] = c.hashOf(k)
	}
	return hs
}

// ensureOut grows the caller's result buffer to n results when needed.
//
//demux:hotpath
func ensureOut(out []core.Result, n int) []core.Result {
	if cap(out) < n {
		out = make([]core.Result, n) //demux:allowalloc amortized: grows the caller-owned result buffer once, then reused across trains
	}
	return out[:n]
}

// LookupBatch demultiplexes a train of inbound keys in one call,
// returning one Result per key in key order, with the probe group for
// packet i+k prefetched while packet i resolves (k = PrefetchDepth; 0
// disables the pipeline). Results and statistics are identical to
// calling Lookup once per key. out is reused when it has capacity.
//
//demux:hotpath
func (t *Hopscotch) LookupBatch(keys []core.Key, _ core.Direction, out []core.Result) []core.Result {
	out = ensureOut(out, len(keys))
	hs := t.hashTrain(keys)
	d := t.depth
	for i := range keys {
		if j := i + d; d > 0 && j < len(keys) {
			prefetchSpan(t.window(hs[j]), &t.sink)
		}
		r := t.lookupHashed(keys[i], hs[i])
		t.record(r)
		out[i] = r
	}
	return out
}

// LookupBatch demultiplexes a train of inbound keys in one call — see
// Hopscotch.LookupBatch for the contract; the cuckoo pipeline prefetches
// each key's first candidate bucket, the bucket that terminates the
// probe for every present key that has not been kicked, i.e. most of
// them.
//
//demux:hotpath
func (t *Cuckoo) LookupBatch(keys []core.Key, _ core.Direction, out []core.Result) []core.Result {
	out = ensureOut(out, len(keys))
	hs := t.hashTrain(keys)
	d := t.depth
	for i := range keys {
		if j := i + d; d > 0 && j < len(keys) {
			prefetchSpan(t.bucket(hs[j]&t.mask), &t.sink)
		}
		r := t.lookupHashed(keys[i], hs[i])
		t.record(r)
		out[i] = r
	}
	return out
}
