package eventq

import (
	"sort"
	"testing"

	"rtoffload/internal/stats"
)

func TestPopOrderIsLexicographic(t *testing.T) {
	var h Heap
	es := []Entry{
		{Key: 5, TieA: 1, TieB: 0, H: 0},
		{Key: 3, TieA: 9, TieB: 2, H: 1},
		{Key: 3, TieA: 2, TieB: 7, H: 2},
		{Key: 3, TieA: 2, TieB: 1, H: 3},
		{Key: 8, TieA: 0, TieB: 0, H: 4},
	}
	for _, e := range es {
		h.Push(e)
	}
	want := []int32{3, 2, 1, 0, 4}
	for i, w := range want {
		if h.Min().H != w {
			t.Fatalf("pop %d: min handle %d, want %d", i, h.Min().H, w)
		}
		if got := h.PopMin(); got.H != w {
			t.Fatalf("pop %d: handle %d, want %d", i, got.H, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("len %d after draining", h.Len())
	}
}

func TestRemoveFromMiddle(t *testing.T) {
	var h Heap
	for i := int32(0); i < 10; i++ {
		h.Push(Entry{Key: int64(10 - i), H: i})
	}
	if !h.Contains(4) {
		t.Fatal("handle 4 missing")
	}
	if !h.Remove(4) {
		t.Fatal("Remove(4) failed")
	}
	if h.Contains(4) || h.Remove(4) {
		t.Fatal("handle 4 still present after removal")
	}
	if h.Remove(99) {
		t.Fatal("removed an unknown handle")
	}
	var keys []int64
	for h.Len() > 0 {
		keys = append(keys, h.PopMin().Key)
	}
	if len(keys) != 9 {
		t.Fatalf("%d entries left, want 9", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("pop order not sorted after removal: %v", keys)
	}
	for _, k := range keys {
		if k == 6 { // handle 4 carried key 10-4 = 6
			t.Fatal("removed key popped anyway")
		}
	}
}

func TestResetRetainsNothing(t *testing.T) {
	var h Heap
	h.Push(Entry{Key: 1, H: 0})
	h.Push(Entry{Key: 2, H: 1})
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Fatal("Reset left state behind")
	}
	h.Push(Entry{Key: 5, H: 1})
	if h.Min().Key != 5 || !h.Contains(1) {
		t.Fatal("heap unusable after Reset")
	}
}

// Randomized differential test against a sorted-slice model: every
// interleaving of pushes, pops, and removals must pop in exact
// lexicographic order, and position tracking must never drift.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := stats.NewRNG(7)
	var h Heap
	model := map[int32]Entry{}
	nextH := int32(0)
	for step := 0; step < 20000; step++ {
		switch op := rng.IntN(4); {
		case op <= 1 || len(model) == 0: // push
			// TieB is the handle so triples are unique — the
			// simulator's (key, task, seq) triples are, too.
			e := Entry{
				Key:  rng.Int64N(50),
				TieA: rng.Int64N(5),
				TieB: int64(nextH),
				H:    nextH,
			}
			nextH++
			h.Push(e)
			model[e.H] = e
		case op == 2: // pop min
			var want Entry
			first := true
			for _, e := range model {
				if first || e.less(want) {
					want, first = e, false
				}
			}
			got := h.PopMin()
			if got != want {
				t.Fatalf("step %d: popped %+v, want %+v", step, got, want)
			}
			delete(model, got.H)
		default: // remove a random live handle
			hs := make([]int32, 0, len(model))
			for k := range model {
				hs = append(hs, k)
			}
			sort.Slice(hs, func(a, b int) bool { return hs[a] < hs[b] })
			hd := hs[rng.IntN(len(hs))]
			if !h.Remove(hd) {
				t.Fatalf("step %d: Remove(%d) failed", step, hd)
			}
			delete(model, hd)
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d: len %d vs model %d", step, h.Len(), len(model))
		}
		for hd := range model {
			if !h.Contains(hd) {
				t.Fatalf("step %d: handle %d lost", step, hd)
			}
		}
	}
}

// TestHeapZeroAlloc gates the hotpath contract on the heap's warm
// operations: with the entry array and handle table grown, push, min,
// pop and remove-from-the-middle cycles must not allocate.
func TestHeapZeroAlloc(t *testing.T) {
	var h Heap
	for i := int32(0); i < 96; i++ {
		h.Push(Entry{Key: int64(i) * 3, H: i})
	}
	for h.Len() > 0 {
		h.PopMin()
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.Push(Entry{Key: 50, H: 3})
		h.Push(Entry{Key: 51, H: 4})
		h.Push(Entry{Key: 100_000, H: 95})
		if h.Min().H != 3 {
			t.Error("unexpected min")
		}
		h.Remove(4)
		h.PopMin()
		h.Remove(95)
	})
	if allocs != 0 {
		t.Fatalf("warm heap operations allocate %.1f times per run; the hotpath contract is 0", allocs)
	}
}

// TestHandleTableGrowthIsLogarithmic pins the handle-table doubling in
// Push. Job-indexed queues at fleet scale see monotonically growing
// handles; a table grown only to fit each new handle would copy itself
// once per push (65,536 allocations here, quadratic bytes), while
// doubling needs O(log n) allocations for the table and the entry
// array together.
func TestHandleTableGrowthIsLogarithmic(t *testing.T) {
	const n = 1 << 16
	allocs := testing.AllocsPerRun(1, func() {
		var h Heap
		for i := int32(0); i < n; i++ {
			h.Push(Entry{Key: int64(i), H: i})
		}
		if h.Len() != n {
			t.Errorf("Len = %d, want %d", h.Len(), n)
		}
	})
	t.Logf("%d pushes with increasing handles: %.0f allocations", n, allocs)
	if allocs > 64 {
		t.Fatalf("%d pushes with increasing handles allocate %.0f times; want O(log n), at most 64", n, allocs)
	}
}
