package dataset

import (
	"testing"
)

// sumAccumulator is a minimal allocation-free Accumulator: it keeps running
// per-column sums, adding on ingest and subtracting on eviction — the same
// shape as the real sufficient-statistics accumulators upstream.
type sumAccumulator struct {
	sums []float64
}

func (a *sumAccumulator) AddRow(row []float64) error {
	for j, v := range row {
		a.sums[j] += v
	}
	return nil
}

func (a *sumAccumulator) RemoveRow(row []float64) error {
	for j, v := range row {
		a.sums[j] -= v
	}
	return nil
}

// TestWindowPushSteadyStateZeroAlloc is the ingest allocation gate: once
// the ring is full, every Push copies the evicted row into the window's
// scratch row and the new row into the freed slot, so steady-state ingest
// allocates nothing.
func TestWindowPushSteadyStateZeroAlloc(t *testing.T) {
	w, err := NewWindow([]string{"a", "b", "c"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{1, 2, 3}
	for i := 0; i < 2*w.Capacity; i++ {
		if _, err := w.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, err := w.Push(row); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("full-window Push allocates %v per row, want 0", avg)
	}
}

// TestStreamPushSteadyStateZeroAlloc extends the gate through the stream:
// window eviction plus accumulator add/remove must stay allocation-free so
// continuous monitoring ingest has no per-row garbage.
func TestStreamPushSteadyStateZeroAlloc(t *testing.T) {
	cols := []string{"a", "b", "c"}
	s, err := NewStream(cols, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind(1, func() ([]Accumulator, error) {
		return []Accumulator{&sumAccumulator{sums: make([]float64, len(cols))}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	row := []float64{1, 2, 3}
	for i := 0; i < 2*16; i++ {
		if err := s.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := s.Push(row); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Stream.Push allocates %v per row, want 0", avg)
	}
}

// TestWindowFlatRingContract pins the flat ring's documented contract
// across several wrap-arounds: Push returns the oldest row, still readable
// until the next Push (which overwrites it); Row and Snapshot list the
// buffered rows oldest first; DropOldest removes the oldest rows without
// copying or allocating, and pushes refill the freed slots.
func TestWindowFlatRingContract(t *testing.T) {
	const capacity = 3
	w, err := NewWindow([]string{"a", "b"}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	row := func(k int) []float64 { return []float64{float64(k), -float64(k)} }
	check := func(label string, first, n int) {
		t.Helper()
		if w.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", label, w.Len(), n)
		}
		snap := w.Snapshot()
		for i := 0; i < n; i++ {
			want := row(first + i)
			if got := w.Row(i); got[0] != want[0] || got[1] != want[1] || len(got) != 2 || cap(got) != 2 {
				t.Fatalf("%s: Row(%d) = %v (cap %d), want %v", label, i, got, cap(got), want)
			}
			if got := snap.Rows[i]; got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("%s: Snapshot row %d = %v, want %v", label, i, got, want)
			}
		}
	}
	var prev []float64
	for k := 0; k < 4*capacity; k++ {
		evicted, err := w.Push(row(k))
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && prev[0] == float64(k-1-capacity) {
			t.Fatalf("push %d: previous evicted row %v not overwritten", k, prev)
		}
		if k < capacity {
			if evicted != nil {
				t.Fatalf("push %d: evicted %v while filling", k, evicted)
			}
		} else {
			want := row(k - capacity)
			if evicted[0] != want[0] || evicted[1] != want[1] {
				t.Fatalf("push %d: evicted %v, want %v", k, evicted, want)
			}
			// The evicted row stays valid while the window is read.
			check("after push", k-capacity+1, capacity)
			if evicted[0] != want[0] || evicted[1] != want[1] {
				t.Fatalf("push %d: evicted row changed before the next Push: %v", k, evicted)
			}
		}
		prev = evicted
	}
	first := 4*capacity - capacity
	if n := w.DropOldest(2); n != 2 {
		t.Fatalf("DropOldest(2) = %d, want 2", n)
	}
	check("after drop", first+2, 1)
	for k := 4 * capacity; k < 4*capacity+2; k++ {
		if evicted, err := w.Push(row(k)); err != nil || evicted != nil {
			t.Fatalf("refill push %d: evicted %v, err %v", k, evicted, err)
		}
	}
	check("after refill", first+2, capacity)
	if n := w.DropOldest(-1); n != 0 {
		t.Fatalf("DropOldest(-1) = %d, want 0", n)
	}
	next := row(99)
	if allocs := testing.AllocsPerRun(10, func() {
		w.DropOldest(1)
		if _, err := w.Push(next); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DropOldest+Push allocates %v times per row, want 0", allocs)
	}
	if n := w.DropOldest(10); n != capacity {
		t.Fatalf("DropOldest past Len removed %d rows, want %d", n, capacity)
	}
	check("after drain", 0, 0)
}

// BenchmarkStreamPush reports steady-state per-row ingest cost with one
// bound accumulator; ReportAllocs pins the zero-allocation property.
func BenchmarkStreamPush(b *testing.B) {
	cols := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	s, err := NewStream(cols, 512)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Bind(1, func() ([]Accumulator, error) {
		return []Accumulator{&sumAccumulator{sums: make([]float64, len(cols))}}, nil
	}); err != nil {
		b.Fatal(err)
	}
	row := make([]float64, len(cols))
	for i := range row {
		row[i] = float64(i)
	}
	for i := 0; i < 1024; i++ {
		if err := s.Push(row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Push(row); err != nil {
			b.Fatal(err)
		}
	}
}
