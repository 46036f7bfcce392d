package discipline

import "testing"

func TestSelectValidatesEagerly(t *testing.T) {
	if _, err := Select("no-such-discipline", "multiplicative", 64); err == nil {
		t.Error("unknown discipline accepted")
	}
	if _, err := Select("sequent", "no-such-hash", 64); err == nil {
		t.Error("unknown hash accepted")
	}
	sel, err := Select(" sequent ", "multiplicative", 64)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.Name != "sequent" {
		t.Errorf("name not trimmed: %q", sel.Name)
	}
}

// Importing this package must guarantee the flat registrations — the
// exact gap that let the sharded workloads drift to hard-coded sequent.
func TestFlatNamesRegistered(t *testing.T) {
	for _, name := range []string{"flat-hopscotch", "flat-cuckoo"} {
		sel, err := Select(name, "multiplicative", 64)
		if err != nil {
			t.Fatalf("Select(%s): %v", name, err)
		}
		if _, err := sel.New(); err != nil {
			t.Errorf("New(%s): %v", name, err)
		}
	}
}

func TestPerShardReturnsIndependentTables(t *testing.T) {
	sel, err := Select("sequent", "multiplicative", 64)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	mk := sel.PerShard()
	a, b := mk(0), mk(1)
	if a == b {
		t.Fatal("PerShard returned a shared instance")
	}
}

func TestNamesNonEmpty(t *testing.T) {
	if len(Names()) == 0 {
		t.Fatal("empty registry")
	}
}
