package tpca

import (
	"testing"

	"tcpdemux/internal/core"
)

// TestStreamShape: the recorded inbound stream is deterministic per
// seed, carries only the population's keys, and holds at least one
// transaction packet per measured transaction, each followed by its
// acknowledgement unless the run ended with it in flight.
func TestStreamShape(t *testing.T) {
	const users, txns = 40, 3
	a, err := Stream(users, txns, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(users, txns, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	population := map[Op]bool{}
	for u := 0; u < users; u++ {
		population[Op{Key: UserKey(u)}] = true
	}
	var data, acks int
	for _, op := range a {
		if !population[Op{Key: op.Key}] {
			t.Fatalf("op key %v outside the user population", op.Key)
		}
		if op.Dir == core.DirData {
			data++
		} else {
			acks++
		}
	}
	if data < users*txns || acks > data || acks < data-users {
		t.Fatalf("stream of %d ops has %d transactions and %d acks (users %d, txns/user %d)",
			len(a), data, acks, users, txns)
	}
	c, err := Stream(users, txns, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c) == len(a)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}
