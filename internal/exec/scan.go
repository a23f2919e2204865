package exec

// Leaf operators: the RSS access paths (segment scan and index scan) exposed
// as physical operators. Both remember the TID of the last tuple returned so
// DML can locate the stored tuple behind each qualifying row (tidSource).
// The RSS scans keep their own per-tuple governor checkpoints.

import (
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// scanOut is the output side both scans share: the arena their composites
// come from and the TID of the last tuple returned.
type scanOut struct {
	comps arena[value.Row]
	tid   storage.TID
}

// add places row in slot relIdx of a fresh composite and appends it to b if
// the node's residual predicates hold, remembering its TID.
func (s *scanOut) add(ctx *blockCtx, b *Batch, relIdx int, residual []sem.Expr, row value.Row, tid storage.TID) error {
	nr := ctx.numRels()
	c := comp(s.comps.slot(nr, b.Cap()))
	c[relIdx] = row
	keep, err := ctx.applyResidual(c, residual)
	if err != nil || !keep {
		return err
	}
	s.comps.take(nr)
	s.tid = tid
	b.Append(c)
	return nil
}

func (s *scanOut) lastTID() storage.TID { return s.tid }

type segScanOp struct {
	scanOut
	ctx  *blockCtx
	node *plan.SegScan
	scan *rss.SegmentScan
}

func (it *segScanOp) open() error {
	sargs, err := it.ctx.resolveSargs(nil, it.node.Sargs)
	if err != nil {
		return err
	}
	it.scan = &rss.SegmentScan{
		Table: it.node.Table, Pool: it.ctx.rt.Pool, Sargs: sargs,
		Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
		Snap: it.ctx.rt.Snap,
	}
	return it.scan.Open()
}

func (it *segScanOp) nextBatch(b *Batch) error {
	for !b.Full() {
		row, tid, ok, err := it.scan.Next()
		if err != nil || !ok {
			return err
		}
		if err := it.add(it.ctx, b, it.node.RelIdx, it.node.Residual, row, tid); err != nil {
			return err
		}
	}
	return nil
}

// close releases the scan; nulling the handle makes repeated closes (tree
// teardown after a nested-loop restart cycle) no-ops.
func (it *segScanOp) close() error {
	if it.scan != nil {
		s := it.scan
		it.scan = nil
		return s.Close()
	}
	return nil
}

type indexScanOp struct {
	scanOut
	ctx   *blockCtx
	node  *plan.IndexScan
	scan  *rss.IndexScan
	empty bool
}

func (it *indexScanOp) open() error {
	// A NULL key bound can match nothing (comparisons with NULL are false):
	// the scan is empty.
	lo, hi, empty, err := it.ctx.resolveKeyBounds(it.node)
	if err != nil {
		return err
	}
	it.empty = empty
	sargs, err := it.ctx.resolveSargs(nil, it.node.Sargs)
	if err != nil {
		return err
	}
	if it.empty {
		return nil
	}
	it.scan = &rss.IndexScan{
		Index: it.node.Index, Pool: it.ctx.rt.Pool,
		Lo: lo, LoInc: it.node.LoInc, Hi: hi, HiInc: it.node.HiInc,
		Sargs: sargs, Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
		Snap: it.ctx.rt.Snap,
	}
	return it.scan.Open()
}

func (it *indexScanOp) nextBatch(b *Batch) error {
	if it.empty {
		return nil
	}
	for !b.Full() {
		row, tid, ok, err := it.scan.Next()
		if err != nil || !ok {
			return err
		}
		if err := it.add(it.ctx, b, it.node.RelIdx, it.node.Residual, row, tid); err != nil {
			return err
		}
	}
	return nil
}

func (it *indexScanOp) close() error {
	if it.scan != nil {
		s := it.scan
		it.scan = nil
		return s.Close()
	}
	return nil
}
