package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"systemr"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// checksum identifies a result as a multiset of rows: the row count and the
// sum of the rows' hashes, so row order does not matter.
type checksum struct {
	rows int
	sum  uint64
}

func (c checksum) String() string { return fmt.Sprintf("%d rows/%016x", c.rows, c.sum) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// hashRow hashes one row of native values (int64, float64, string, nil),
// the types systemr.Result rows hold.
func hashRow(row []any) uint64 {
	h := uint64(fnvOffset)
	var buf [9]byte
	for _, v := range row {
		switch x := v.(type) {
		case int64:
			buf[0] = 'i'
			binary.LittleEndian.PutUint64(buf[1:], uint64(x))
			h = fnvBytes(h, buf[:])
		case float64:
			buf[0] = 'f'
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(x))
			h = fnvBytes(h, buf[:])
		case string:
			buf[0] = 's'
			binary.LittleEndian.PutUint64(buf[1:], uint64(len(x)))
			h = fnvBytes(fnvBytes(h, buf[:]), []byte(x))
		default:
			h = fnvBytes(h, []byte{'n'})
		}
	}
	// Finalize (splitmix64) so that summing row hashes mixes well.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func checksumRows(rows [][]any) checksum {
	c := checksum{rows: len(rows)}
	for _, r := range rows {
		c.sum += hashRow(r)
	}
	return c
}

// native converts a reference row to the value types systemr.Result uses.
func native(r value.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		switch v.Kind {
		case value.KindInt:
			out[i] = v.Int
		case value.KindFloat:
			out[i] = v.Float
		case value.KindString:
			out[i] = v.Str
		}
	}
	return out
}

// reference answers a SELECT with the brute-force evaluator of
// internal/testutil, which shares no code with the executor.
func reference(db *systemr.DB, text string) (checksum, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return checksum{}, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return checksum{}, fmt.Errorf("not a SELECT: %s", text)
	}
	blk, err := sem.Analyze(sel, db.Catalog())
	if err != nil {
		return checksum{}, err
	}
	rows, err := testutil.RunBlock(db.Runtime().Disk, blk)
	if err != nil {
		return checksum{}, err
	}
	c := checksum{rows: len(rows)}
	for _, r := range rows {
		c.sum += hashRow(native(r))
	}
	return c, nil
}

// sameChecksum compares a result with its expected checksum.
func sameChecksum(res *systemr.Result, want checksum) error {
	if got := checksumRows(res.Rows); got != want {
		return fmt.Errorf("result %v, reference %v", got, want)
	}
	return nil
}

// ascending checks that column col never decreases down the result.
func ascending(res *systemr.Result, col int) error {
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1][col], res.Rows[i][col]
		if less(b, a) {
			return fmt.Errorf("row %d: %v after %v breaks ORDER BY", i, b, a)
		}
	}
	return nil
}

func less(a, b any) bool {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x < y
	case float64:
		y, ok := b.(float64)
		return ok && x < y
	case string:
		y, ok := b.(string)
		return ok && x < y
	}
	return false
}

// oneRow returns the only row of a result.
func oneRow(res *systemr.Result) ([]any, error) {
	if len(res.Rows) != 1 {
		return nil, fmt.Errorf("%d rows, want 1", len(res.Rows))
	}
	return res.Rows[0], nil
}

// want compares one result value with the model's.
func want(got, expected any, what string) error {
	if got != expected {
		return fmt.Errorf("%s = %v, model has %v", what, got, expected)
	}
	return nil
}
