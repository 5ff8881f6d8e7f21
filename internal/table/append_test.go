package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamBase builds a small frozen fact table for append tests.
func streamBase(t *testing.T) *Table {
	t.Helper()
	dims, err := NewStringColumnFromCodes("dim", []string{"a", "b", "c"}, []int32{0, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New("facts", dims, NewFloat64ColumnFromValues("m", []float64{1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func streamTime(s int) time.Time {
	return time.Date(2026, 1, 1, 0, 0, s, 0, time.UTC)
}

func TestAppendBatchSnapshotIsolation(t *testing.T) {
	base := streamBase(t)
	live, err := base.AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	if !live.live.Load() || base.live.Load() {
		t.Fatalf("live flags: copy=%v base=%v", live.live.Load(), base.live.Load())
	}
	old := live.Snapshot()
	if old.NumRows() != 4 || len(old.marks) != 0 {
		t.Fatalf("pre-append snapshot: rows=%d marks=%d", old.NumRows(), len(old.marks))
	}

	mark, err := live.AppendBatch(NewRowBatch().
		Strings("dim", "b", "c").
		Float64s("m", 10, 20), streamTime(1))
	if err != nil {
		t.Fatal(err)
	}
	if mark.Start != 4 {
		t.Fatalf("mark = %+v", mark)
	}
	if live.NumRows() != 6 || len(live.marks) != 1 {
		t.Fatalf("live: rows=%d marks=%d", live.NumRows(), len(live.marks))
	}
	// The pre-append snapshot must be unaffected.
	if old.NumRows() != 4 {
		t.Fatalf("old snapshot grew to %d rows", old.NumRows())
	}
	fresh := live.Snapshot()
	if fresh.NumRows() != 6 || len(fresh.marks) != 1 {
		t.Fatalf("fresh snapshot: rows=%d marks=%d", fresh.NumRows(), len(fresh.marks))
	}
	sc, err := fresh.StringColumn("dim")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.StringAt(5); got != "c" {
		t.Fatalf("appended row decoded as %q", got)
	}
	if got := fresh.Column("m").(*Float64Column).Float(4); got != 10 {
		t.Fatalf("appended measure = %g", got)
	}
	// Base table never sees the append.
	if base.NumRows() != 4 {
		t.Fatalf("base table grew to %d rows", base.NumRows())
	}
}

// TestAppendableCopyWritesNothingShared: two live copies of one base never
// write the same memory, and neither writes a row the base's readers see.
// The base's columns are given spare capacity and two live copies of it
// take different batches. The first copy's columns keep the room and the
// second's have none; afterwards the base, a snapshot of each copy cut
// before its second batch, and the base's spare capacity, which holds the
// first copy's rows and nothing of the second's, are bit for bit what they
// should be.
func TestAppendableCopyWritesNothingShared(t *testing.T) {
	const n, spare = 4, 60
	codes := append(make([]int32, 0, n+spare), 0, 1, 2, 0)
	floats := append(make([]float64, 0, n+spare), 1, 2, 3, 4)
	ints := append(make([]int64, 0, n+spare), 10, 20, 30, 40)
	dim, err := NewStringColumnFromCodes("dim", []string{"a", "b", "c"}, codes)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New("facts", dim, NewFloat64ColumnFromValues("m", floats), &Int64Column{name: "k", values: ints})
	if err != nil {
		t.Fatal(err)
	}

	// rows renders every row of a table, floats by their bits.
	rows := func(tab *Table) []string {
		out := make([]string, tab.NumRows())
		for i := range out {
			out[i] = fmt.Sprintf("%s %x %d", tab.Column("dim").StringAt(i), math.Float64bits(tab.Column("m").(*Float64Column).Float(i)), tab.Column("k").(*Int64Column).values[i])
		}
		return out
	}
	baseRows := rows(base)
	grow := func(live *Table, dims []string, m []float64, k []int64, at int) {
		t.Helper()
		if _, err := live.AppendBatch(NewRowBatch().Strings("dim", dims...).Float64s("m", m...).Int64s("k", k...), streamTime(at)); err != nil {
			t.Fatal(err)
		}
	}
	var lives, firsts [2]*Table
	for i := range lives {
		live, err := base.AppendableCopy(streamTime(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range live.columns {
			var length, room int
			switch col := c.(type) {
			case *Float64Column:
				length, room = len(col.values), cap(col.values)
			case *Int64Column:
				length, room = len(col.values), cap(col.values)
			case *StringColumn:
				length, room = len(col.codes), cap(col.codes)
			}
			if want := []int{n + spare, n}[i]; length != n || room != want {
				t.Fatalf("copy %d column %q: len %d cap %d, want %d and %d", i, c.Name(), length, room, n, want)
			}
		}
		lives[i] = live
	}
	grow(lives[0], []string{"b", "c"}, []float64{-1, -2}, []int64{-10, -20}, 1)
	grow(lives[1], []string{"c"}, []float64{7.5}, []int64{75}, 1)
	for i, live := range lives {
		firsts[i] = live.Snapshot()
	}
	grow(lives[0], []string{"a"}, []float64{-3}, []int64{-30}, 2)
	grow(lives[1], []string{"a", "a", "b"}, []float64{8.5, 9.5, 10.5}, []int64{85, 95, 105}, 2)

	want := [2][]string{
		append(append([]string(nil), baseRows...), "b bff0000000000000 -10", "c c000000000000000 -20"),
		append(append([]string(nil), baseRows...), "c 401e000000000000 75"),
	}
	if got := rows(base); !slices.Equal(got, baseRows) {
		t.Fatalf("the base changed: %v, was %v", got, baseRows)
	}
	for i, snap := range firsts {
		if got := rows(snap); !slices.Equal(got, want[i]) {
			t.Fatalf("copy %d after its first batch: %v, want %v", i, got, want[i])
		}
	}
	if got, want0 := rows(lives[0].Snapshot()), append(want[0], "a c008000000000000 -30"); !slices.Equal(got, want0) {
		t.Fatalf("copy 0 after its second batch: %v, want %v", got, want0)
	}
	if got := lives[1].Snapshot().NumRows(); got != n+4 {
		t.Fatalf("copy 1 has %d rows after two batches, want %d", got, n+4)
	}
	// The room holds copy 0's three rows, then the zeros no copy wrote.
	roomCodes, roomFloats, roomInts := []int32{1, 2, 0}, []float64{-1, -2, -3}, []int64{-10, -20, -30}
	for j := n; j < n+spare; j++ {
		var wc int32
		var wf float64
		var wk int64
		if r := j - n; r < len(roomCodes) {
			wc, wf, wk = roomCodes[r], roomFloats[r], roomInts[r]
		}
		if c, f, k := codes[:n+spare][j], floats[:n+spare][j], ints[:n+spare][j]; c != wc || f != wf || k != wk {
			t.Fatalf("the base's spare capacity at %d holds %d %v %d, want %d %v %d", j, c, f, k, wc, wf, wk)
		}
	}
}

// roomyBase is streamBase's table on arrays with spare rows of capacity
// past its four rows, which it returns too.
func roomyBase(t *testing.T, spare int) (*Table, []int32, []float64) {
	t.Helper()
	codes := append(make([]int32, 0, 4+spare), 0, 1, 2, 0)
	floats := append(make([]float64, 0, 4+spare), 1, 2, 3, 4)
	dims, err := NewStringColumnFromCodes("dim", []string{"a", "b", "c"}, codes)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New("facts", dims, NewFloat64ColumnFromValues("m", floats))
	if err != nil {
		t.Fatal(err)
	}
	return tab, codes, floats
}

// TestFirstCopyAppendsInPlace: the first live copy of a table with spare
// capacity appends into that room, so its first batch moves no column,
// and a batch that outgrows the room moves them all.
func TestFirstCopyAppendsInPlace(t *testing.T) {
	const spare = 8
	base, codes, floats := roomyBase(t, spare)
	live, err := base.AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	dim, err := live.StringColumn("dim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := live.Float64Column("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AppendBatch(NewRowBatch().Strings("dim", "b", "c").Float64s("m", 5, 6), streamTime(1)); err != nil {
		t.Fatal(err)
	}
	if &dim.codes[0] != &codes[:1][0] || &m.values[0] != &floats[:1][0] {
		t.Fatal("the first batch moved the columns off the base's arrays")
	}
	if got, got2 := codes[:6][4:], floats[:6][4:]; !slices.Equal(got, []int32{1, 2}) || !slices.Equal(got2, []float64{5, 6}) {
		t.Fatalf("the batch's rows in the base's room: %v %v, want [1 2] [5 6]", got, got2)
	}
	past := make([]string, spare-1)
	for i := range past {
		past[i] = "a"
	}
	if _, err := live.AppendBatch(NewRowBatch().Strings("dim", past...).Float64s("m", make([]float64, spare-1)...), streamTime(2)); err != nil {
		t.Fatal(err)
	}
	if &dim.codes[0] == &codes[:1][0] || &m.values[0] == &floats[:1][0] {
		t.Fatal("a batch past the room left the columns on the base's arrays")
	}
	if live.NumRows() != 4+2+spare-1 || m.Float(5) != 6 || dim.StringAt(4) != "b" {
		t.Fatalf("after the move: %d rows, row 5 %v, row 4 %q", live.NumRows(), m.Float(5), dim.StringAt(4))
	}
}

// TestBaseReadersSeeTheirRowsWhileFirstCopyAppends: while the first live
// copy appends into the base's room and then past it, the base's readers
// see its four rows and nothing else; under -race, that no read touches
// memory an append writes.
func TestBaseReadersSeeTheirRowsWhileFirstCopyAppends(t *testing.T) {
	base, _, _ := roomyBase(t, 64)
	live, err := base.AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := live.AppendBatch(NewRowBatch().Strings("dim", "c", "b").Float64s("m", 9, 9), streamTime(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m, err := base.Float64Column("m")
				if err != nil {
					t.Error(err)
					return
				}
				dim, err := base.StringColumn("dim")
				if err != nil {
					t.Error(err)
					return
				}
				var sum float64
				for _, v := range m.Values() {
					sum += v
				}
				var codes int32
				for _, c := range dim.Codes() {
					codes += c
				}
				if base.NumRows() != 4 || m.Len() != 4 || dim.Len() != 4 || sum != 10 || codes != 3 {
					t.Errorf("the base reads %d rows (%d, %d), sum %v, codes %d; want 4 rows, 10 and 3",
						base.NumRows(), m.Len(), dim.Len(), sum, codes)
					return
				}
			}
		}()
	}
	wg.Wait()
	if live.NumRows() != 4+80 {
		t.Fatalf("live copy has %d rows, want 84", live.NumRows())
	}
}

// TestColumnAccessorsHideTheRoom: Values and Codes return slices without
// capacity, so an append to one cannot write the rows a live copy keeps in
// the base's room.
func TestColumnAccessorsHideTheRoom(t *testing.T) {
	base, _, _ := roomyBase(t, 8)
	live, err := base.AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AppendBatch(NewRowBatch().Strings("dim", "b").Float64s("m", 5), streamTime(1)); err != nil {
		t.Fatal(err)
	}
	bm, err := base.Float64Column("m")
	if err != nil {
		t.Fatal(err)
	}
	bdim, err := base.StringColumn("dim")
	if err != nil {
		t.Fatal(err)
	}
	_ = append(bm.Values(), -1)
	_ = append(bdim.Codes(), 2)
	m, err := live.Float64Column("m")
	if err != nil {
		t.Fatal(err)
	}
	dim, err := live.StringColumn("dim")
	if err != nil {
		t.Fatal(err)
	}
	if m.Float(4) != 5 || dim.StringAt(4) != "b" {
		t.Fatalf("live row 4 reads %v %q after appends to the base's accessors, want 5 \"b\"", m.Float(4), dim.StringAt(4))
	}
}

func TestAppendBatchValidation(t *testing.T) {
	base := streamBase(t)
	if _, err := base.AppendBatch(NewRowBatch().Strings("dim", "a").Float64s("m", 1), streamTime(1)); err == nil {
		t.Fatal("append to a frozen table succeeded")
	}
	live, err := base.AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    *RowBatch
		want string
	}{
		{"missing column", NewRowBatch().Strings("dim", "a"), "batch has 1 columns"},
		{"unknown column", NewRowBatch().Strings("dim", "a").Float64s("bogus", 1), "not in the schema"},
		{"ragged", NewRowBatch().Strings("dim", "a", "b").Float64s("m", 1), "want 2"},
		{"type mismatch", NewRowBatch().Float64s("dim", 1).Float64s("m", 1), "must be string"},
		{"new dict value", NewRowBatch().Strings("dim", "zzz").Float64s("m", 1), "not in the dictionary"},
		{"duplicate", NewRowBatch().Strings("dim", "a").Strings("dim", "a"), "staged twice"},
	}
	for _, tc := range cases {
		if _, err := live.AppendBatch(tc.b, streamTime(1)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Rejected batches leave the table untouched.
	if live.NumRows() != 4 || len(live.marks) != 0 {
		t.Fatalf("table mutated by rejected batches: rows=%d marks=%d", live.NumRows(), len(live.marks))
	}
}

// TestScannerPinnedUnderAppend is the regression test for the stale-read
// bug: scanners used to capture NumRows at construction and then read
// column data live, so a scan over a growing table could mix an old row
// bound with new data. Scanners are now pinned to the committed watermark
// at construction.
func TestScannerPinnedUnderAppend(t *testing.T) {
	live, err := streamBase(t).AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequentialScanner(live)
	rnd := NewRandomScanner(live, rand.New(rand.NewSource(7)))
	if _, err := live.AppendBatch(NewRowBatch().Strings("dim", "a", "a", "a").Float64s("m", 9, 9, 9), streamTime(1)); err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]Scanner{"sequential": seq, "random": rnd} {
		rows := drainBatched(sc, 3)
		for _, row := range rows {
			if row >= 4 {
				t.Fatalf("%s scanner emitted row %d appended after construction", name, row)
			}
		}
		if len(rows) != 4 {
			t.Fatalf("%s scanner emitted %d rows, want 4", name, len(rows))
		}
	}
}

func TestRowsInLast(t *testing.T) {
	live, err := streamBase(t).AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	// No history: the whole table is current.
	if got := live.RowsInLast(time.Minute); got != 0 {
		t.Fatalf("no-history window starts at %d", got)
	}
	appendOne := func(sec int) {
		t.Helper()
		if _, err := live.AppendBatch(NewRowBatch().Strings("dim", "a").Float64s("m", 1), streamTime(sec)); err != nil {
			t.Fatal(err)
		}
	}
	appendOne(10)  // rows [4,5) @ t=10s
	appendOne(70)  // rows [5,6) @ t=70s
	appendOne(130) // rows [6,7) @ t=130s

	cases := []struct {
		window time.Duration
		want   int
	}{
		{time.Second, 6},       // only the newest batch
		{65 * time.Second, 5},  // newest two
		{121 * time.Second, 4}, // all batches, base rows excluded (loaded at t=0 < cutoff t=9s)
		{131 * time.Second, 0}, // cutoff before load time: everything
		{0, 0},                 // no window: everything
		{-time.Second, 0},      // degenerate: everything
	}
	for _, tc := range cases {
		if got := live.RowsInLast(tc.window); got != tc.want {
			t.Errorf("RowsInLast(%v) = %d, want %d", tc.window, got, tc.want)
		}
	}
	// Snapshots resolve the same windows forever, even after more appends.
	snap := live.Snapshot()
	appendOne(500)
	if got := snap.RowsInLast(65 * time.Second); got != 5 {
		t.Errorf("snapshot RowsInLast = %d, want 5", got)
	}
	if got := live.RowsInLast(time.Second); got != 7 {
		t.Errorf("live RowsInLast after new batch = %d, want 7", got)
	}
}

// TestConcurrentAppendAndScan races appenders against snapshot readers:
// under -race this proves the watermark discipline keeps readers and
// writers on disjoint memory, and each snapshot's sums must reflect a
// whole number of committed batches (no torn appends).
func TestConcurrentAppendAndScan(t *testing.T) {
	live, err := streamBase(t).AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatal(err)
	}
	const batches = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			if _, err := live.AppendBatch(NewRowBatch().
				Strings("dim", "a", "b").
				Float64s("m", 1, 1), streamTime(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 50; i++ {
				snap := live.Snapshot()
				col, err := snap.Float64Column("m")
				if err != nil {
					t.Error(err)
					return
				}
				var sum float64
				for _, row := range drainBatched(NewRandomScanner(snap, rng), 16) {
					sum += col.Float(row)
				}
				// Base sum is 1+2+3+4=10; every committed batch adds 2.
				extra := sum - 10
				if extra < 0 || extra != float64(int(extra)) || int(extra)%2 != 0 {
					t.Errorf("torn read: snapshot sum %g implies a partial batch", sum)
					return
				}
				if snap.NumRows() != 4+int(extra) {
					t.Errorf("snapshot rows %d disagree with sum %g", snap.NumRows(), sum)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if live.NumRows() != 4+2*batches || len(live.marks) != batches {
		t.Fatalf("final state: rows=%d marks=%d", live.NumRows(), len(live.marks))
	}
}
