package exec

// Tuple location for DELETE and UPDATE: "Retrieval for data manipulation
// (UPDATE, DELETE) is treated similarly" (Section 1) — the WHERE clause is
// analyzed as a single-relation query block and the optimizer's chosen
// access path (index probe or segment scan, with SARGs) locates the affected
// tuples. Targets are fully collected before any mutation, which also avoids
// re-visiting tuples the statement itself moves (the Halloween problem).

import (
	"fmt"

	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// CollectTIDs drives the access path of a planned single-relation block and
// returns the TIDs and images of every tuple satisfying all of the block's
// boolean factors. The scan runs as a physical operator, so it goes through
// the same instrumented, governor-checked boundary as query execution.
func CollectTIDs(rt *Runtime, q *plan.Query) ([]storage.TID, []value.Row, error) {
	if len(q.Block.Rels) != 1 {
		return nil, nil, fmt.Errorf("exec: CollectTIDs requires a single-relation block, got %d relations", len(q.Block.Rels))
	}
	evals := 0
	ctx := newBlockCtx(rt, q, &evals)

	// Locate the access path under the wrapper nodes. DML blocks have no
	// aggregation; the plan is Project(scan), possibly with a sort the DML
	// caller does not need.
	n := q.Root
walk:
	for {
		switch x := n.(type) {
		case *plan.Project:
			n = x.Input
		case *plan.Sort:
			n = x.Input
		case *plan.Distinct:
			n = x.Input
		default:
			break walk
		}
	}

	switch n.(type) {
	case *plan.SegScan, *plan.IndexScan:
	default:
		return nil, nil, fmt.Errorf("exec: unexpected DML access path %T", n)
	}
	leaf, err := ctx.build(n)
	if err != nil {
		return nil, nil, err
	}
	return collectFromScan(leaf)
}

// collectFromScan drives the leaf operator to completion one row per batch,
// so the scan's tidSource names the tuple behind each row, guaranteeing
// Close on every exit path (including panics) and surfacing its error. The
// operator's residual predicates already filtered the rows.
func collectFromScan(leaf *op) (tids []storage.TID, rows []value.Row, err error) {
	src, ok := leaf.impl.(tidSource)
	if !ok {
		return nil, nil, fmt.Errorf("exec: access path %T does not expose TIDs", leaf.impl)
	}
	relIdx := 0
	if seg, ok := leaf.node.(*plan.SegScan); ok {
		relIdx = seg.RelIdx
	} else if idx, ok := leaf.node.(*plan.IndexScan); ok {
		relIdx = idx.RelIdx
	}
	defer func() {
		if cerr := leaf.Close(); cerr != nil && err == nil {
			tids, rows, err = nil, nil, cerr
		}
	}()
	if err := leaf.Open(); err != nil {
		return nil, nil, err
	}
	one := NewBatch(1)
	for {
		if err := leaf.NextBatch(one); err != nil {
			return nil, nil, err
		}
		if one.Len() == 0 {
			return tids, rows, nil
		}
		tids = append(tids, src.lastTID())
		rows = append(rows, one.Row(0)[relIdx])
	}
}

// resolveKeyBounds evaluates an index scan's start/stop bounds, reporting
// empty=true when a bound is NULL (nothing can match).
func (ctx *blockCtx) resolveKeyBounds(leaf *plan.IndexScan) (lo, hi []value.Value, empty bool, err error) {
	conv := func(bs []sem.Bound) ([]value.Value, bool, error) {
		if len(bs) == 0 {
			return nil, false, nil
		}
		out := make([]value.Value, len(bs))
		for i, b := range bs {
			v, err := ctx.resolveBound(nil, b)
			if err != nil {
				return nil, false, err
			}
			if v.IsNull() {
				return nil, true, nil
			}
			out[i] = v
		}
		return out, false, nil
	}
	lo, emptyLo, err := conv(leaf.Lo)
	if err != nil {
		return nil, nil, false, err
	}
	hi, emptyHi, err := conv(leaf.Hi)
	if err != nil {
		return nil, nil, false, err
	}
	return lo, hi, emptyLo || emptyHi, nil
}
