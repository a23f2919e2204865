package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"systemr"
)

// adhoc_join: one client sending distinct 2–6-relation joins with literal
// predicates over eight small tables. There are far more distinct texts
// than plan-cache entries, so every statement is parsed, analyzed and
// optimized.
var (
	adhocRows = []int{60, 90, 120, 150, 80, 110, 140, 100}
	// adhocParent[i] is the table Ti.P references (Ti.P = Tparent.ID): the
	// join graph is a tree, so every join predicate is a foreign key and
	// results stay small.
	adhocParent = []int{-1, 0, 0, 1, 1, 2, 3, 5}
)

const (
	// adhocSampleEvery and adhocSamples pick the statements checked
	// against the reference evaluator: the ≤3-relation ones among every
	// adhocSampleEvery-th statement, at most adhocSamples of them.
	adhocSampleEvery = 16
	adhocSamples     = 24
)

var adhocJoin = &workload{
	name:    "adhoc_join",
	clients: 1,
	rate:    520,
	build:   buildAdhoc,
	prepare: prepareAdhoc,
}

func buildAdhoc(seed int64) (*systemr.DB, time.Duration, error) {
	rnd := rand.New(rand.NewSource(seed))
	db := systemr.Open(systemr.Config{})
	var stmts []string
	for t, rows := range adhocRows {
		stmts = append(stmts, fmt.Sprintf("CREATE TABLE T%d (ID INTEGER, P INTEGER, G INTEGER, V FLOAT, S VARCHAR)", t))
		parentRows := 10
		if p := adhocParent[t]; p >= 0 {
			parentRows = adhocRows[p]
		}
		// Every column takes each value of its domain equally often, in
		// seeded order, so join fanouts and predicate selectivities are the
		// same for every seed and only which rows match varies.
		ps, gs, ss := balanced(rnd, rows, parentRows), balanced(rnd, rows, 10), balanced(rnd, rows, 20)
		vs := balanced(rnd, rows, rows)
		vals := make([]string, rows)
		for r := range vals {
			v := vs[r] * 10000 / rows // tenths, spread over [0, 1000)
			vals[r] = fmt.Sprintf("(%d, %d, %d, %d.%d, 'S%d')", r, ps[r], gs[r], v/10, v%10, ss[r])
		}
		stmts = append(stmts, fmt.Sprintf("INSERT INTO T%d VALUES %s", t, strings.Join(vals, ", ")),
			fmt.Sprintf("CREATE UNIQUE INDEX T%d_ID ON T%d (ID)", t, t))
		if t%2 == 1 {
			stmts = append(stmts, fmt.Sprintf("CREATE INDEX T%d_P ON T%d (P)", t, t))
		}
		if t%3 == 0 {
			stmts = append(stmts, fmt.Sprintf("CREATE INDEX T%d_G ON T%d (G)", t, t))
		}
		if t%4 == 2 {
			stmts = append(stmts, fmt.Sprintf("CREATE INDEX T%d_S ON T%d (S)", t, t))
		}
	}
	if err := execAll(db, stmts...); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := execAll(db, "UPDATE STATISTICS"); err != nil {
		return nil, 0, err
	}
	return db, time.Since(start), nil
}

// balanced returns n values that cover 0..domain-1 as evenly as possible,
// in an order drawn from rnd.
func balanced(rnd *rand.Rand, n, domain int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i % domain
	}
	rnd.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// joinGen generates distinct join statements from a seed. The relation
// count and the shape of the select list cycle through every combination
// in a fixed order, so that each seed gets the same mix of statement
// shapes; tables, predicates and literals come from the seed.
type joinGen struct {
	rnd  *rand.Rand
	seen map[uint64]bool
	n    int // statements generated
}

const (
	minRels, maxRels = 2, 6
	numShapes        = 5 // select-list shapes in gen
)

func newJoinGen(seed int64) *joinGen {
	return &joinGen{rnd: rand.New(rand.NewSource(seed ^ 0x5eed)), seen: map[uint64]bool{}}
}

// next returns a statement text not returned before and its relation count.
func (g *joinGen) next() (string, int) {
	rels := minRels + g.n%(maxRels-minRels+1)
	shape := g.n / (maxRels - minRels + 1) % numShapes
	g.n++
	for {
		text := g.gen(rels, shape)
		h := fnvBytes(fnvOffset, []byte(text))
		if !g.seen[h] {
			g.seen[h] = true
			return text, rels
		}
	}
}

// gen builds a join of k relations whose select list has the given shape.
func (g *joinGen) gen(k, shape int) string {
	rnd := g.rnd
	tables := []int{rnd.Intn(len(adhocRows))}
	in := map[int]bool{tables[0]: true}
	for len(tables) < k {
		// Grow a connected subtree of the join graph by one neighbour.
		var cand []int
		for _, t := range tables {
			if p := adhocParent[t]; p >= 0 && !in[p] {
				cand = append(cand, p)
			}
			for c, p := range adhocParent {
				if p == t && !in[c] {
					cand = append(cand, c)
				}
			}
		}
		t := cand[rnd.Intn(len(cand))]
		tables = append(tables, t)
		in[t] = true
	}
	alias := map[int]string{}
	from := make([]string, k)
	for i, t := range tables {
		alias[t] = fmt.Sprintf("A%d", i)
		from[i] = fmt.Sprintf("T%d A%d", t, i)
	}
	var preds []string
	for _, t := range tables {
		if p := adhocParent[t]; p >= 0 && in[p] {
			preds = append(preds, fmt.Sprintf("%s.P = %s.ID", alias[t], alias[p]))
		}
	}
	for n := 1 + rnd.Intn(3); n > 0; n-- {
		t := tables[rnd.Intn(k)]
		a := alias[t]
		switch rnd.Intn(6) {
		case 0:
			preds = append(preds, fmt.Sprintf("%s.G = %d", a, rnd.Intn(10)))
		case 1:
			preds = append(preds, fmt.Sprintf("%s.ID < %d", a, 1+rnd.Intn(adhocRows[t])))
		case 2:
			lo := rnd.Intn(600)
			preds = append(preds, fmt.Sprintf("%s.V BETWEEN %d.%d AND %d.%d", a, lo, rnd.Intn(10), lo+100+rnd.Intn(300), rnd.Intn(10)))
		case 3:
			preds = append(preds, fmt.Sprintf("%s.S IN ('S%d', 'S%d', 'S%d')", a, rnd.Intn(20), rnd.Intn(20), rnd.Intn(20)))
		case 4:
			preds = append(preds, fmt.Sprintf("%s.G IN (%d, %d)", a, rnd.Intn(10), rnd.Intn(10)))
		default:
			lo := rnd.Intn(adhocRows[t])
			preds = append(preds, fmt.Sprintf("%s.ID BETWEEN %d AND %d", a, lo, lo+rnd.Intn(60)))
		}
	}
	first, last := alias[tables[0]], alias[tables[k-1]]
	x, y := alias[tables[rnd.Intn(k)]], alias[tables[rnd.Intn(k)]]
	where := " WHERE " + strings.Join(preds, " AND ")
	switch shape {
	case 0:
		return fmt.Sprintf("SELECT %s.ID, %s.G FROM %s%s", first, last, strings.Join(from, ", "), where)
	case 1:
		return fmt.Sprintf("SELECT COUNT(*) FROM %s%s", strings.Join(from, ", "), where)
	case 2:
		return fmt.Sprintf("SELECT %s.G, COUNT(*), MIN(%s.ID) FROM %s%s GROUP BY %s.G", x, y, strings.Join(from, ", "), where, x)
	case 3:
		return fmt.Sprintf("SELECT %s.ID, %s.V FROM %s%s ORDER BY %s.ID", first, last, strings.Join(from, ", "), where, first)
	default:
		return fmt.Sprintf("SELECT DISTINCT %s.G, %s.S FROM %s%s", x, y, strings.Join(from, ", "), where)
	}
}

type adhocClient struct {
	gen  *joinGen
	want map[int]checksum // reference answers by position in the sequence
}

// prepareAdhoc computes the reference answers of the sampled statements by
// generating the sequence once ahead of the measured pass, which then
// generates it again from the same seed.
func prepareAdhoc(db *systemr.DB, seed int64, ops int) (*session, error) {
	c := &adhocClient{gen: newJoinGen(seed), want: map[int]checksum{}}
	ahead := newJoinGen(seed)
	for i := 0; i < ops && len(c.want) < adhocSamples; i++ {
		text, rels := ahead.next()
		if i%adhocSampleEvery != 0 || rels > 3 {
			continue
		}
		sum, err := reference(db, text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", text, err)
		}
		c.want[i] = sum
	}
	return &session{
		clients: []client{c},
		stmts:   [][]*systemr.Stmt{nil},
	}, nil
}

func (c *adhocClient) next() op {
	text, rels := c.gen.next()
	return op{kind: kindQuery, tag: fmt.Sprintf("join%d", rels), text: text}
}

func (c *adhocClient) check(o *op, res *systemr.Result) error {
	if sum, ok := c.want[o.seq]; ok {
		return sameChecksum(res, sum)
	}
	return nil
}
