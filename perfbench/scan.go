package main

import (
	"errors"
	"math/rand"
	"time"

	"systemr"
)

// analytic_scan: one client repeating five DB.Query texts over an EMP several
// times larger than the default 64-page buffer pool.
const scanRows = 13000 // about 200 EMP data pages

var analyticScan = &workload{
	name:    "analytic_scan",
	clients: 1,
	rate:    100,
	build: func(seed int64) (*systemr.DB, time.Duration, error) {
		return buildEmp(seed, scanRows, 0)
	},
	prepare: prepareScan,
}

// scanQueries are served from the plan cache after their first run.
var scanQueries = []struct {
	tag, text string
	orderCol  int // result column ORDER BY sorts on, or -1
}{
	{"filter", "SELECT NAME, SAL FROM EMP WHERE MANAGER < 1000", -1},
	{"groupby", "SELECT DNO, COUNT(*), SUM(SAL), MIN(SAL), MAX(SAL) FROM EMP GROUP BY DNO", -1},
	{"join3", "SELECT E.NAME, D.LOC, J.TITLE FROM EMP E, DEPT D, JOB J WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND E.MANAGER < 2000", -1},
	{"orderby", "SELECT EMPNO, SAL FROM EMP WHERE DNO <= 5 ORDER BY SAL", 1},
	{"range", "SELECT NAME, SAL FROM EMP WHERE SAL BETWEEN 20000 AND 21000", -1},
}

type scanClient struct {
	rnd  *rand.Rand
	want []checksum
	perm []int
}

func prepareScan(db *systemr.DB, seed int64, _ int) (*session, error) {
	c := &scanClient{rnd: rand.New(rand.NewSource(seed))}
	for _, q := range scanQueries {
		sum, err := reference(db, q.text)
		if err != nil {
			return nil, err
		}
		c.want = append(c.want, sum)
	}
	return &session{
		clients: []client{c},
		stmts:   [][]*systemr.Stmt{nil},
	}, nil
}

// next runs the queries round by round, each round in a seeded order.
func (c *scanClient) next() op {
	if len(c.perm) == 0 {
		c.perm = c.rnd.Perm(len(scanQueries))
	}
	i := c.perm[0]
	c.perm = c.perm[1:]
	return op{kind: kindQuery, tag: scanQueries[i].tag, stmt: i, text: scanQueries[i].text}
}

func (c *scanClient) check(o *op, res *systemr.Result) error {
	err := sameChecksum(res, c.want[o.stmt])
	if col := scanQueries[o.stmt].orderCol; col >= 0 {
		err = errors.Join(err, ascending(res, col))
	}
	return err
}
