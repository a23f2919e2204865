package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"systemr"
)

// The paper's EMP/DEPT/JOB schema, loaded from a seed. oltp_rw and
// analytic_scan both run on it.
const (
	empDepts = 50
	empJobs  = 10
	// insertBatch is the number of rows per multi-row INSERT at load time.
	insertBatch = 500
)

// empData is the EMP contents a seed generates. Row i has EMPNO i and
// NAME empName(i); DNO, JOB and SAL come from the seed.
type empData struct {
	dno, job []int
	sal      []float64 // whole numbers, so sums are exact
	manager  []int
}

func genEmp(seed int64, rows int) *empData {
	rnd := rand.New(rand.NewSource(seed))
	e := &empData{dno: make([]int, rows), job: make([]int, rows), sal: make([]float64, rows), manager: make([]int, rows)}
	for i := 0; i < rows; i++ {
		e.dno[i] = 1 + rnd.Intn(empDepts)
		e.job[i] = 1 + rnd.Intn(empJobs)
		e.sal[i] = float64(10000 + rnd.Intn(40000))
		e.manager[i] = rnd.Intn(rows)
	}
	return e
}

func empName(empno int) string { return fmt.Sprintf("E%06d", empno) }
func deptName(dno int) string  { return fmt.Sprintf("D%03d", dno) }
func jobTitle(job int) string  { return fmt.Sprintf("JOB%02d", job) }

var locations = []string{"DENVER", "SAN JOSE", "TUCSON", "BOSTON", "AUSTIN"}

func deptLoc(dno int) string { return locations[dno%len(locations)] }
func empValues(empno, dno, job int, sal float64, manager int) string {
	return fmt.Sprintf("('%s', %d, %d, %.1f, %d, %d)", empName(empno), dno, job, sal, manager, empno)
}

// execAll runs statements in order, stopping at the first error.
func execAll(db *systemr.DB, stmts ...string) error {
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return fmt.Errorf("%.80s: %w", s, err)
		}
	}
	return nil
}

// buildEmp creates and loads EMP/DEPT/JOB with the indexes of the paper's
// examples, then runs UPDATE STATISTICS, whose time it returns.
func buildEmp(seed int64, rows, bufferPages int) (*systemr.DB, time.Duration, error) {
	db := systemr.Open(systemr.Config{BufferPages: bufferPages})
	err := execAll(db,
		"CREATE TABLE EMP (NAME VARCHAR, DNO INTEGER, JOB INTEGER, SAL FLOAT, MANAGER INTEGER, EMPNO INTEGER)",
		"CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR, LOC VARCHAR)",
		"CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR)")
	if err != nil {
		return nil, 0, err
	}
	var vals []string
	for j := 1; j <= empJobs; j++ {
		vals = append(vals, fmt.Sprintf("(%d, '%s')", j, jobTitle(j)))
	}
	stmts := []string{"INSERT INTO JOB VALUES " + strings.Join(vals, ", ")}
	vals = vals[:0]
	for d := 1; d <= empDepts; d++ {
		vals = append(vals, fmt.Sprintf("(%d, '%s', '%s')", d, deptName(d), deptLoc(d)))
	}
	stmts = append(stmts, "INSERT INTO DEPT VALUES "+strings.Join(vals, ", "))
	e := genEmp(seed, rows)
	for lo := 0; lo < rows; lo += insertBatch {
		vals = vals[:0]
		for i := lo; i < rows && i < lo+insertBatch; i++ {
			vals = append(vals, empValues(i, e.dno[i], e.job[i], e.sal[i], e.manager[i]))
		}
		stmts = append(stmts, "INSERT INTO EMP VALUES "+strings.Join(vals, ", "))
	}
	stmts = append(stmts,
		"CREATE INDEX EMP_DNO ON EMP (DNO)",
		"CREATE INDEX EMP_JOB ON EMP (JOB)",
		"CREATE INDEX EMP_SAL ON EMP (SAL)",
		"CREATE UNIQUE INDEX EMP_EMPNO ON EMP (EMPNO)",
		"CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)",
		"CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)",
		"CREATE INDEX JOB_TITLE ON JOB (TITLE)")
	if err := execAll(db, stmts...); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := execAll(db, "UPDATE STATISTICS"); err != nil {
		return nil, 0, err
	}
	return db, time.Since(start), nil
}
