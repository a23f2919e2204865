package exec

// Output-stage operators: projection, aggregation (GROUP BY on ordered
// input), and duplicate elimination. They emit final output rows as
// single-slot composites (outComp/outRow) so they share the one Operator
// interface with the relational operators below them.

import (
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// projectOp evaluates the block's output expressions per composite row.
type projectOp struct {
	ctx   *blockCtx
	input *op
	exprs []sem.Expr
	read  *batchReader
	vals  arena[value.Value] // output rows
	comps arena[value.Row]   // their single-slot composites
}

func (it *projectOp) open() error {
	if err := it.input.Open(); err != nil {
		return err
	}
	if it.read == nil {
		it.read = it.ctx.newBatchReader(it.input)
	} else {
		it.read.reset()
	}
	return nil
}

// nextBatch projects a batch at a time, allocating output rows and their
// single-slot composites from the operator's arenas (consumers may retain
// rows).
func (it *projectOp) nextBatch(b *Batch) error {
	ne := len(it.exprs)
	for !b.Full() {
		c, ok, err := it.read.next()
		if err != nil || !ok {
			return err
		}
		out := value.Row(it.vals.slot(ne, b.Cap()))
		it.vals.take(ne)
		for i, e := range it.exprs {
			v, err := it.ctx.evalExpr(c, e)
			if err != nil {
				return err
			}
			out[i] = v
		}
		oc := comp(it.comps.slot(1, b.Cap()))
		it.comps.take(1)
		oc[0] = out
		b.Append(oc)
	}
	return nil
}

func (it *projectOp) close() error { return it.input.Close() }

// groupAggOp aggregates input already ordered on the grouping columns,
// emitting one output row per group (or exactly one row for a scalar
// aggregate over the whole input).
type groupAggOp struct {
	ctx   *blockCtx
	input *op
	node  *plan.GroupAgg
	read  *batchReader

	curKey  value.Row
	curRep  comp // representative composite for group-column output values
	states  []aggState
	started bool
	done    bool
}

func (it *groupAggOp) open() error {
	it.curKey, it.curRep, it.states = nil, nil, nil
	it.started, it.done = false, false
	if err := it.input.Open(); err != nil {
		return err
	}
	if it.read == nil {
		it.read = it.ctx.newBatchReader(it.input)
	} else {
		it.read.reset()
	}
	return nil
}

func (it *groupAggOp) groupKey(c comp) value.Row {
	key := make(value.Row, len(it.node.GroupCols))
	for i, g := range it.node.GroupCols {
		key[i] = c[g.Rel][g.Col]
	}
	return key
}

// nextBatch folds input rows into the current group, emitting each group
// as the first row of the next one (or the end of input) closes it. Every
// input row emits at most one group, so a fill never overruns b.
func (it *groupAggOp) nextBatch(b *Batch) error {
	for !b.Full() && !it.done {
		c, ok, err := it.read.next()
		if err != nil {
			return err
		}
		if !ok {
			it.done = true
			if !it.started {
				if len(it.node.GroupCols) > 0 {
					return nil // no input → no groups
				}
				// Scalar aggregate over empty input: one row (COUNT = 0,
				// SUM/AVG/MIN/MAX = NULL) — unless HAVING filters it.
				it.states = newAggStates(it.node.Aggs)
				return it.emit(b, make(comp, it.ctx.numRels()))
			}
			return it.emit(b, it.curRep)
		}
		if !it.started {
			it.started = true
			it.curKey = it.groupKey(c)
			it.curRep = c
			it.states = newAggStates(it.node.Aggs)
		} else if len(it.node.GroupCols) > 0 {
			if key := it.groupKey(c); value.CompareKey(key, it.curKey) != 0 {
				// Group boundary: emit the finished group, start the next
				// with this row.
				if err := it.emit(b, it.curRep); err != nil {
					return err
				}
				it.curKey = key
				it.curRep = c
				it.states = newAggStates(it.node.Aggs)
			}
		}
		if err := it.accumulate(c); err != nil {
			return err
		}
	}
	return nil
}

func (it *groupAggOp) accumulate(c comp) error {
	for i, a := range it.node.Aggs {
		if a.Star {
			it.states[i].addRow()
			continue
		}
		v, err := it.ctx.evalExpr(c, a.Arg)
		if err != nil {
			return err
		}
		it.states[i].addValue(v)
	}
	return nil
}

// emit finalizes the current group: HAVING conjuncts filter it, otherwise
// the block's output expressions are evaluated over the group's
// representative composite and the aggregate results, and the row is
// appended to b.
func (it *groupAggOp) emit(b *Batch, rep comp) error {
	aggVals := make([]value.Value, len(it.states))
	for i := range it.states {
		aggVals[i] = it.states[i].finish(it.node.Aggs[i].Name)
	}
	it.ctx.aggVals = aggVals
	defer func() { it.ctx.aggVals = nil }()
	for _, h := range it.node.Having {
		ok, err := it.ctx.evalBool(rep, h)
		if err != nil || !ok {
			return err
		}
	}
	out := make(value.Row, len(it.node.OutExprs))
	for i, e := range it.node.OutExprs {
		v, err := it.ctx.evalExpr(rep, e)
		if err != nil {
			return err
		}
		out[i] = v
	}
	b.Append(outComp(out))
	return nil
}

func (it *groupAggOp) close() error { return it.input.Close() }

// aggState accumulates one aggregate over one group.
type aggState struct {
	star     bool  // COUNT(*): counts rows, not values
	rows     int64 // all rows
	count    int64 // non-NULL inputs
	sumI     int64
	sumFloat float64
	isFloat  bool
	min, max value.Value
}

func newAggStates(aggs []*sem.Agg) []aggState {
	states := make([]aggState, len(aggs))
	for i, a := range aggs {
		states[i].star = a.Star
	}
	return states
}

func (s *aggState) addRow() { s.rows++ }

func (s *aggState) addValue(v value.Value) {
	s.rows++
	if v.IsNull() {
		return
	}
	s.count++
	switch v.Kind {
	case value.KindInt:
		s.sumI += v.Int
		s.sumFloat += float64(v.Int)
	case value.KindFloat:
		s.isFloat = true
		s.sumFloat += v.Float
	}
	if s.count == 1 {
		s.min, s.max = v, v
		return
	}
	if value.Compare(v, s.min) < 0 {
		s.min = v
	}
	if value.Compare(v, s.max) > 0 {
		s.max = v
	}
}

func (s *aggState) finish(name string) value.Value {
	switch name {
	case "COUNT":
		// COUNT(*) counts rows; COUNT(expr) counts non-NULL values.
		if s.star {
			return value.NewInt(s.rows)
		}
		return value.NewInt(s.count)
	case "SUM":
		if s.count == 0 {
			return value.Null()
		}
		if s.isFloat {
			return value.NewFloat(s.sumFloat)
		}
		return value.NewInt(s.sumI)
	case "AVG":
		if s.count == 0 {
			return value.Null()
		}
		return value.NewFloat(s.sumFloat / float64(s.count))
	case "MIN":
		if s.count == 0 {
			return value.Null()
		}
		return s.min
	case "MAX":
		if s.count == 0 {
			return value.Null()
		}
		return s.max
	default:
		return value.Null()
	}
}

// distinctOp removes duplicate output rows. It hashes encoded rows and
// preserves input order; see DESIGN.md for the deviation from System R's
// sort-based duplicate elimination.
type distinctOp struct {
	ctx   *blockCtx
	input *op
	seen  map[string]bool
	read  *batchReader
}

func (it *distinctOp) open() error {
	it.seen = make(map[string]bool)
	if err := it.input.Open(); err != nil {
		return err
	}
	if it.read == nil {
		it.read = it.ctx.newBatchReader(it.input)
	} else {
		it.read.reset()
	}
	return nil
}

// nextBatch fills b with rows not seen before.
func (it *distinctOp) nextBatch(b *Batch) error {
	for !b.Full() {
		c, ok, err := it.read.next()
		if err != nil || !ok {
			return err
		}
		key := string(storage.EncodeRow(outRow(c)))
		if it.seen[key] {
			continue
		}
		it.seen[key] = true
		b.Append(c)
	}
	return nil
}

func (it *distinctOp) close() error { return it.input.Close() }
