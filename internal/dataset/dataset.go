package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Dataset is a rectangular table of float64 observations. Column j of every
// row corresponds to Columns[j]; model builders additionally assume column
// order matches Bayesian-network node ids.
type Dataset struct {
	Columns []string
	Rows    [][]float64
}

// New creates an empty dataset with the given column names.
func New(columns []string) *Dataset {
	return &Dataset{Columns: append([]string(nil), columns...)}
}

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return len(d.Rows) }

// NumCols returns the number of columns.
func (d *Dataset) NumCols() int { return len(d.Columns) }

// Append adds a row after checking its width.
func (d *Dataset) Append(row []float64) error {
	if len(row) != len(d.Columns) {
		return fmt.Errorf("dataset: row width %d != %d columns", len(row), len(d.Columns))
	}
	d.Rows = append(d.Rows, append([]float64(nil), row...))
	return nil
}

// Col returns a copy of column j.
func (d *Dataset) Col(j int) []float64 {
	out := make([]float64, len(d.Rows))
	for i, r := range d.Rows {
		out[i] = r[j]
	}
	return out
}

// ColByName returns a copy of the named column.
func (d *Dataset) ColByName(name string) ([]float64, error) {
	for j, c := range d.Columns {
		if c == name {
			return d.Col(j), nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown column %q", name)
}

// Head returns a dataset view over the first n rows (shared backing rows).
func (d *Dataset) Head(n int) *Dataset {
	if n > len(d.Rows) {
		n = len(d.Rows)
	}
	return &Dataset{Columns: d.Columns, Rows: d.Rows[:n]}
}

// Tail returns a dataset view over the last n rows.
func (d *Dataset) Tail(n int) *Dataset {
	if n > len(d.Rows) {
		n = len(d.Rows)
	}
	return &Dataset{Columns: d.Columns, Rows: d.Rows[len(d.Rows)-n:]}
}

// Split partitions the rows into a training prefix of trainFrac and a test
// suffix (views sharing backing rows).
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	cut := int(trainFrac * float64(len(d.Rows)))
	return &Dataset{Columns: d.Columns, Rows: d.Rows[:cut]},
		&Dataset{Columns: d.Columns, Rows: d.Rows[cut:]}
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	c := New(d.Columns)
	c.Rows = make([][]float64, len(d.Rows))
	for i, r := range d.Rows {
		c.Rows[i] = append([]float64(nil), r...)
	}
	return c
}

// WriteCSV writes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Columns); err != nil {
		return err
	}
	rec := make([]string, len(d.Columns))
	for _, row := range d.Rows {
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	d := New(header)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading row %d: %w", len(d.Rows)+1, err)
		}
		row := make([]float64, len(rec))
		for j, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", len(d.Rows)+1, j, err)
			}
			row[j] = v
		}
		if err := d.Append(row); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Window is the sliding data window of the paper's Equation 1: the model
// (re)construction at each interval uses the data of the current interval
// plus the K−1 previous ones, i.e. at most Capacity = K·α_model points.
//
// The rows live in one flat row-major ring of Capacity×columns values,
// grown on demand while the window fills, so a buffered row costs its
// values alone — no per-row array or slice header.
type Window struct {
	Columns  []string
	Capacity int
	data     []float64 // ring of rows, row-major; len grows to Capacity×cols
	start    int       // ring-buffer start (row index)
	count    int
	// evicted holds a copy of the row the latest Push evicted, so the
	// ring slot can take the new row while the old values stay readable
	// until the next Push.
	evicted []float64
}

// NewWindow creates a sliding window holding at most capacity rows.
func NewWindow(columns []string, capacity int) (*Window, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dataset: window capacity must be positive, got %d", capacity)
	}
	return &Window{
		Columns:  append([]string(nil), columns...),
		Capacity: capacity,
		evicted:  make([]float64, len(columns)),
	}, nil
}

// Push appends a row, evicting the oldest when full. The evicted row (nil
// while the window is still filling) is returned so streaming accumulators
// can reverse-update their sufficient statistics for rows leaving the
// window.
//
// The evicted slice is the window's own scratch copy and is valid only
// until the next Push, which overwrites it; callers that need the evicted
// row beyond the current call must copy it. Once the ring has reached its
// capacity, Push allocates nothing.
func (w *Window) Push(row []float64) (evicted []float64, err error) {
	c := len(w.Columns)
	if len(row) != c {
		return nil, fmt.Errorf("dataset: row width %d != %d columns", len(row), c)
	}
	idx := (w.start + w.count) % w.Capacity
	if w.count == w.Capacity {
		evicted = w.evicted
		copy(evicted, w.slot(w.start))
		w.start = (w.start + 1) % w.Capacity
		w.count--
	}
	if idx*c == len(w.data) {
		// Still filling: every slot below start+count has been written
		// and the ring has not wrapped, so the new row goes at the end.
		w.grow(c)
	}
	copy(w.slot(idx), row)
	w.count++
	return evicted, nil
}

// grow extends the ring by one row, doubling its backing array (capped at
// the full capacity) when it runs out of room.
func (w *Window) grow(c int) {
	if len(w.data)+c > cap(w.data) {
		next := make([]float64, len(w.data), min(max(2*cap(w.data), 16*c), w.Capacity*c))
		copy(next, w.data)
		w.data = next
	}
	w.data = w.data[:len(w.data)+c]
}

// slot returns ring slot j as a full-capacity-limited view.
func (w *Window) slot(j int) []float64 {
	c := len(w.Columns)
	return w.data[j*c : (j+1)*c : (j+1)*c]
}

// Len returns the number of buffered rows.
func (w *Window) Len() int { return w.count }

// Row returns the i-th oldest buffered row as a view into the ring, without
// copying it; the slice is valid only until the next Push.
func (w *Window) Row(i int) []float64 { return w.slot((w.start + i) % w.Capacity) }

// DropOldest removes up to n of the oldest buffered rows and reports how
// many it removed. It copies and allocates nothing: a caller that must see
// the dropped rows (to reverse-update streaming accumulators) reads them
// through Row(0..n-1) first, oldest first — the order Push evicts in. Used
// by the drift-triggered reconstruction path, where data from before a
// detected change no longer describes the environment.
func (w *Window) DropOldest(n int) int {
	n = max(min(n, w.count), 0)
	w.start = (w.start + n) % w.Capacity
	w.count -= n
	return n
}

// Snapshot copies the window contents, oldest first, into a Dataset.
func (w *Window) Snapshot() *Dataset {
	d := New(w.Columns)
	d.Rows = make([][]float64, 0, w.count)
	for i := 0; i < w.count; i++ {
		d.Rows = append(d.Rows, append([]float64(nil), w.Row(i)...))
	}
	return d
}
