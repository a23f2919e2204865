package exec

// Batch-oriented execution. The classic tuple-at-a-time Volcano protocol
// pays the instrumented operator boundary — a governor tick, two wall-clock
// reads, and two statement-counter reads — once per row. NextBatch moves
// rows across that boundary a batch at a time, so the boundary cost is
// amortized over DefaultBatchSize rows while the interior operators keep
// their own governor checkpoints (scans check per tuple examined).
//
// NextBatch is the only operator protocol. Block execution drives the root
// with full-size batches and composite operators read their children
// through batchReaders; the row-at-a-time callers (cursors and DML tuple
// location) drive the same NextBatch with a one-row batch, so each row still
// crosses one instrumented, governor-ticked boundary. A batch size of 1 is
// the paper's tuple-at-a-time execution, running through this same code.

// DefaultBatchSize is the number of rows an operator aims to move per
// NextBatch call when the runtime does not configure a size.
const DefaultBatchSize = 256

// Batch is a reusable buffer of composite rows. The backing array is reused
// across NextBatch calls; the rows themselves are freshly allocated by the
// producing operator (from its arenas), so a consumer may retain them
// across batches — merge-join groups and nested-loop outer rows depend on
// that.
type Batch struct {
	rows []comp
}

// NewBatch creates a batch with capacity n (the target rows per fill).
func NewBatch(n int) *Batch {
	if n < 1 {
		n = 1
	}
	return &Batch{rows: make([]comp, 0, n)}
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Cap returns the batch's target fill size.
func (b *Batch) Cap() int { return cap(b.rows) }

// Full reports whether the batch reached its target size.
func (b *Batch) Full() bool { return len(b.rows) == cap(b.rows) }

// Reset empties the batch, keeping its backing array.
func (b *Batch) Reset() { b.rows = b.rows[:0] }

// Append adds one row.
func (b *Batch) Append(c comp) { b.rows = append(b.rows, c) }

// Row returns row i.
func (b *Batch) Row(i int) comp { return b.rows[i] }

// arena hands out fixed-width slots (composite rows, projected output rows)
// carved from chunks owned by one operator. Chunks start at one row and
// double up to the batch capacity, so an operator returning one row per call
// (a nested-loop index probe, a cursor) allocates for about one row per
// call, while a streaming scan settles at one chunk per full batch. A slot
// is handed out once and never reused, so consumers may retain rows.
type arena[T any] struct {
	chunk []T
	off   int
	rows  int // rows in the current chunk
}

// slot returns the next unused width-wide slot without consuming it; take
// consumes it. A slot that is not taken (a row a residual rejected) is
// returned again by the next call.
func (a *arena[T]) slot(width, maxRows int) []T {
	if a.off+width > len(a.chunk) {
		a.rows = min(max(2*a.rows, 1), maxRows)
		a.chunk = make([]T, a.rows*width)
		a.off = 0
	}
	return a.chunk[a.off : a.off+width : a.off+width]
}

// take consumes the slot last returned by slot.
func (a *arena[T]) take(width int) { a.off += width }

// batchReader adapts a child operator's NextBatch stream back to one-row
// reads for a composite operator's interior logic: rows cross the child's
// instrumented boundary a batch at a time and are then served out of the
// buffer. src is the concrete wrapper (not the Operator interface) so the
// governor checkpoint inside NextBatch is statically visible to sysrcheck.
type batchReader struct {
	src  *op
	buf  *Batch
	i    int
	done bool
}

func (ctx *blockCtx) newBatchReader(src *op) *batchReader {
	return &batchReader{src: src, buf: NewBatch(ctx.batchN)}
}

// reset discards buffered rows; callers reset after re-opening src (a
// nested-loop inner) or before a fresh drain.
func (r *batchReader) reset() {
	r.buf.Reset()
	r.i = 0
	r.done = false
}

// next serves one row, refilling from src as needed.
func (r *batchReader) next() (comp, bool, error) {
	for r.i >= r.buf.Len() {
		if r.done {
			return nil, false, nil
		}
		if err := r.src.NextBatch(r.buf); err != nil {
			return nil, false, err
		}
		r.i = 0
		if r.buf.Len() == 0 {
			r.done = true
			return nil, false, nil
		}
	}
	c := r.buf.rows[r.i]
	r.i++
	return c, true, nil
}
