package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"systemr"
)

// oltp_rw: two clients, each a goroutine in a closed loop, on a 20k-row
// EMP that fits in the buffer pool. 85% of operations are prepared reads
// with host variables, 15% autocommitted writes.
const (
	oltpRows    = 20000
	oltpClients = 2 // oltpRows is a multiple, so a client's inserts keep its EMPNO residue
	// oltpBufferPages holds the whole database, inserts and row versions
	// included (EMP alone is about 306 data pages at 20k rows).
	oltpBufferPages = 4096
	// oltpRange is the SAL width of a range read: about 20 rows.
	oltpRange = 40
)

var oltpRW = &workload{
	name:    "oltp_rw",
	clients: oltpClients,
	rate:    12000,
	build: func(seed int64) (*systemr.DB, time.Duration, error) {
		return buildEmp(seed, oltpRows, oltpBufferPages)
	},
	prepare: prepareOLTP,
}

// The prepared reads, indexed by op.stmt.
const (
	stPoint = iota
	stJoin
	stRange
)

var oltpReads = []string{
	stPoint: "SELECT NAME, DNO FROM EMP WHERE EMPNO = ?",
	stJoin:  "SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J WHERE E.EMPNO = ? AND E.DNO = D.DNO AND E.JOB = J.JOB",
	stRange: "SELECT EMPNO, SAL FROM EMP WHERE SAL BETWEEN ? AND ?",
}

// oltpModel is what the benchmark expects the database to hold.
type oltpModel struct {
	emp *empData
	// sal is the current SAL of each loaded row. Client c updates only the
	// rows with EMPNO%oltpClients == c, so writes never conflict and each
	// element has one writer.
	sal []float64
}

// oltpClient owns the rows with EMPNO%oltpClients == id, loaded and
// inserted: only it changes them, so it knows which of them every range
// read must return.
type oltpClient struct {
	id          int
	rnd         *rand.Rand
	m           *oltpModel
	inserted    int
	insertedSal float64
	newSal      map[int]float64 // SAL of the rows this client inserted
	bySal       map[int][]int   // own rows by SAL bucket (SAL / oltpRange)
}

func (c *oltpClient) salOf(empno int) float64 {
	if empno < len(c.m.sal) {
		return c.m.sal[empno]
	}
	return c.newSal[empno]
}

// file records an own row under its SAL's bucket.
func (c *oltpClient) file(empno int, sal float64) {
	b := int(sal) / oltpRange
	c.bySal[b] = append(c.bySal[b], empno)
}

func (c *oltpClient) unfile(empno int, sal float64) {
	b := int(sal) / oltpRange
	keys := c.bySal[b]
	for i, k := range keys {
		if k == empno {
			c.bySal[b] = append(keys[:i], keys[i+1:]...)
			return
		}
	}
}

func prepareOLTP(db *systemr.DB, seed int64, _ int) (*session, error) {
	m := &oltpModel{emp: genEmp(seed, oltpRows)}
	m.sal = append([]float64(nil), m.emp.sal...)
	sess := &session{}
	clients := make([]*oltpClient, oltpClients)
	for c := range clients {
		var stmts []*systemr.Stmt
		for _, text := range oltpReads {
			s, err := db.Prepare(text)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, s)
		}
		cl := &oltpClient{id: c, rnd: rand.New(rand.NewSource(seed*7919 + int64(c) + 1)), m: m,
			newSal: map[int]float64{}, bySal: map[int][]int{}}
		for k := c; k < oltpRows; k += oltpClients {
			cl.file(k, m.sal[k])
		}
		clients[c] = cl
		sess.clients = append(sess.clients, clients[c])
		sess.stmts = append(sess.stmts, stmts)
	}
	sess.final = func() error {
		count, sum := int64(len(m.sal)), 0.0
		for _, s := range m.sal {
			sum += s
		}
		for _, c := range clients {
			count += int64(c.inserted)
			sum += c.insertedSal
		}
		res, err := db.Query("SELECT COUNT(*), SUM(SAL) FROM EMP")
		if err != nil {
			return err
		}
		row, err := oneRow(res)
		if err != nil {
			return err
		}
		return errors.Join(want(row[0], count, "COUNT(*)"), want(row[1], sum, "SUM(SAL)"))
	}
	return sess, nil
}

func (c *oltpClient) next() op {
	n := len(c.m.sal)
	switch r := c.rnd.Intn(1000); {
	case r < 350:
		k := c.rnd.Intn(n)
		return op{kind: kindPrepared, tag: "point", stmt: stPoint, args: []any{k},
			text: fmt.Sprintf("SELECT NAME, DNO FROM EMP WHERE EMPNO = %d", k)}
	case r < 600:
		k := c.rnd.Intn(n)
		return op{kind: kindPrepared, tag: "join", stmt: stJoin, args: []any{k},
			text: fmt.Sprintf("SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J WHERE E.EMPNO = %d AND E.DNO = D.DNO AND E.JOB = J.JOB", k)}
	case r < 850:
		lo := float64(10000 + c.rnd.Intn(40000))
		hi := lo + oltpRange
		return op{kind: kindPrepared, tag: "range", stmt: stRange, args: []any{lo, hi},
			text: fmt.Sprintf("SELECT EMPNO, SAL FROM EMP WHERE SAL BETWEEN %.1f AND %.1f", lo, hi)}
	case r < 925:
		k := c.id + oltpClients*c.rnd.Intn(n/oltpClients)
		sal := float64(10000 + c.rnd.Intn(40000))
		c.unfile(k, c.m.sal[k])
		c.m.sal[k] = sal
		c.file(k, sal)
		return op{kind: kindUpdate, tag: "update",
			text: fmt.Sprintf("UPDATE EMP SET SAL = %.1f WHERE EMPNO = %d", sal, k)}
	default:
		empno := n + oltpClients*c.inserted + c.id
		sal := float64(10000 + c.rnd.Intn(40000))
		c.inserted++
		c.insertedSal += sal
		c.newSal[empno] = sal
		c.file(empno, sal)
		return op{kind: kindInsert, tag: "insert",
			text: "INSERT INTO EMP VALUES " + empValues(empno, 1+c.rnd.Intn(empDepts), 1+c.rnd.Intn(empJobs), sal, c.rnd.Intn(n))}
	}
}

func (c *oltpClient) check(o *op, res *systemr.Result) error {
	if o.kind.write() {
		if res.Affected != 1 {
			return fmt.Errorf("%d rows affected, want 1", res.Affected)
		}
		return nil
	}
	switch o.stmt {
	case stPoint, stJoin:
		k := o.args[0].(int)
		row, err := oneRow(res)
		if err != nil {
			return err
		}
		if o.stmt == stPoint {
			return errors.Join(want(row[0], empName(k), "NAME"), want(row[1], int64(c.m.emp.dno[k]), "DNO"))
		}
		return errors.Join(want(row[0], empName(k), "NAME"),
			want(row[1], deptName(c.m.emp.dno[k]), "DNAME"),
			want(row[2], jobTitle(c.m.emp.job[k]), "TITLE"))
	default:
		return c.checkRange(o.args[0].(float64), o.args[1].(float64), res)
	}
}

// checkRange checks a SAL range read: every row lies in the range, and the
// client's own rows in it are exactly those its model has there. Rows of
// the other client may change under the read, so only their range is
// checked.
func (c *oltpClient) checkRange(lo, hi float64, res *systemr.Result) error {
	own := 0
	for _, row := range res.Rows {
		s, ok := row[1].(float64)
		if !ok || s < lo || s > hi {
			return fmt.Errorf("SAL %v outside [%v, %v]", row[1], lo, hi)
		}
		empno, ok := row[0].(int64)
		if !ok {
			return fmt.Errorf("EMPNO %v is not an integer", row[0])
		}
		if int(empno)%oltpClients != c.id {
			continue
		}
		if m := c.salOf(int(empno)); m != s {
			return fmt.Errorf("EMPNO %d: SAL %v, model has %v", empno, s, m)
		}
		own++
	}
	want := 0
	for b := int(lo) / oltpRange; b <= int(hi)/oltpRange; b++ {
		for _, k := range c.bySal[b] {
			if s := c.salOf(k); s >= lo && s <= hi {
				want++
			}
		}
	}
	if own != want {
		return fmt.Errorf("SAL in [%v, %v]: %d of this client's rows, model has %d", lo, hi, own, want)
	}
	return nil
}
