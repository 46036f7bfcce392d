package tpca

import "tcpdemux/internal/core"

// Op is one inbound packet event of a recorded lookup stream: the key the
// server demultiplexes on and whether the packet was a transaction (data)
// or a pure acknowledgement.
type Op struct {
	Key core.Key
	Dir core.Direction
}

// Stream records the server-side inbound packet stream of one TPC/A
// simulation run — the realistic read-mostly key sequence the paper's
// workload produces, response-interval locality included — for replay by
// the throughput harnesses. users and txnsPerUser size the run; the
// stream holds two inbound packets (transaction, ack) per transaction,
// warm-up included.
func Stream(users, txnsPerUser int, seed uint64) ([]Op, error) {
	var stream []Op
	cfg := Config{
		Users: users, ResponseTime: 0.2, RTT: 0.001, Seed: seed,
		MeasuredTxns: txnsPerUser * users,
		Observer: func(_ float64, key core.Key, send, ack bool) {
			if send {
				return // outbound: not a demultiplexing event
			}
			dir := core.DirData
			if ack {
				dir = core.DirAck
			}
			stream = append(stream, Op{Key: key, Dir: dir})
		},
	}
	if _, err := Run(core.NewMapDemux(), cfg); err != nil {
		return nil, err
	}
	return stream, nil
}
