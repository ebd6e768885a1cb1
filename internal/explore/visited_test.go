package explore

import "testing"

// TestVisitedSetModel drives the compact visited set against a map model.
func TestVisitedSetModel(t *testing.T) {
	v := newVisitedSet()
	model := map[uint64]bool{}
	// A deterministic pseudo-random walk plus adversarial patterns: dense
	// low bits (one shard), the zero key, and re-insertions.
	keys := []uint64{0, 1, 2, 3, 1 << 56, 2 << 56, 0xffffffffffffffff}
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		keys = append(keys, x)
	}
	for i, k := range keys {
		if got, want := v.Contains(k), model[k]; got != want {
			t.Fatalf("step %d: Contains(%#x) = %t, want %t", i, k, got, want)
		}
		if got, want := v.Insert(k), !model[k]; got != want {
			t.Fatalf("step %d: Insert(%#x) fresh = %t, want %t", i, k, got, want)
		}
		model[k] = true
		if !v.Contains(k) {
			t.Fatalf("step %d: key %#x lost after insert", i, k)
		}
	}
	// Every key re-inserts as a duplicate.
	for _, k := range keys {
		if v.Insert(k) {
			t.Fatalf("key %#x re-inserted as fresh", k)
		}
	}
	if v.Len() != len(model) {
		t.Fatalf("Len() = %d, want %d", v.Len(), len(model))
	}
	seen := map[uint64]bool{}
	v.Range(func(k uint64) bool { seen[k] = true; return true })
	if len(seen) != len(model) {
		t.Fatalf("Range yielded %d keys, want %d", len(seen), len(model))
	}
	for k := range model {
		if !seen[k] {
			t.Fatalf("Range missed key %#x", k)
		}
	}
}

// FuzzVisitedSet differentially fuzzes the compact visited set against a
// map model over arbitrary insert/contains streams.
func FuzzVisitedSet(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xee})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := newVisitedSet()
		model := map[uint64]bool{}
		for len(data) >= 8 {
			var k uint64
			for i := 0; i < 8; i++ {
				k |= uint64(data[i]) << (8 * i)
			}
			data = data[8:]
			if got, want := v.Insert(k), !model[k]; got != want {
				t.Fatalf("Insert(%#x) fresh = %t, want %t", k, got, want)
			}
			model[k] = true
			if !v.Contains(k) {
				t.Fatalf("key %#x missing after insert", k)
			}
		}
		if v.Len() != len(model) {
			t.Fatalf("Len() = %d, want %d", v.Len(), len(model))
		}
	})
}
