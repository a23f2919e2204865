package exec

import (
	"runtime"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// TestArenaAllocatesForRowsTaken pins the arena's sizing rule: at every
// point the slots allocated stay within 2x of the slots taken, and no chunk
// exceeds the batch capacity.
func TestArenaAllocatesForRowsTaken(t *testing.T) {
	const width, capRows = 3, 256
	var a arena[value.Value]
	allocated := 0
	for taken := 1; taken <= 5000; taken++ {
		s := a.slot(width, capRows)
		if len(s) != width || cap(s) != width {
			t.Fatalf("slot len/cap %d/%d, want %d", len(s), cap(s), width)
		}
		if a.off == 0 { // a fresh chunk
			allocated += a.rows
			if a.rows > capRows {
				t.Fatalf("chunk of %d rows exceeds the batch capacity %d", a.rows, capRows)
			}
		}
		a.take(width)
		if allocated > 2*taken {
			t.Fatalf("allocated %d slots for %d taken", allocated, taken)
		}
	}
}

// TestOneRowProbeAllocatesForOneRow drives a one-row index probe — the
// nested-loop inner's shape — through a full-size batch many times and
// bounds the bytes allocated per probe. A batch fill must allocate for the
// rows it returns, not for the batch's capacity: a capacity-sized arena per
// call costs DefaultBatchSize composite headers (24 bytes each) per probe.
func TestOneRowProbeAllocatesForOneRow(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{
		{Name: "K", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}, "")
	for k := int64(0); k < 500; k++ {
		rss.Insert(tab, value.Row{value.NewInt(k), value.NewInt(k * 3)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	}
	if _, err := e.cat.CreateIndex("T_K", "T", []string{"K"}, true, false); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics()

	st, err := sql.Parse("SELECT V FROM T WHERE K = 77")
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sem.Analyze(st.(*sql.SelectStmt), e.cat)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(e.cat, core.Config{}).Optimize(blk)
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := q.Root.(*plan.Project)
	if !ok {
		t.Fatalf("root %T, want a projection", q.Root)
	}
	if _, ok := proj.Input.(*plan.IndexScan); !ok {
		t.Fatalf("access path %T, want an index scan:\n%s", proj.Input, q.Explain())
	}
	evals := 0
	leaf, err := newBlockCtx(e.rt, q, &evals).build(proj.Input)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(DefaultBatchSize)
	probe := func() {
		if err := leaf.Open(); err != nil {
			t.Fatal(err)
		}
		if err := leaf.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 1 || b.Row(0)[0][1].Int != 231 {
			t.Fatalf("probe returned %d rows", b.Len())
		}
		if err := leaf.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pool and the arena's growth
		probe()
	}

	const probes = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < probes; i++ {
		probe()
	}
	runtime.ReadMemStats(&m1)
	perProbe := float64(m1.TotalAlloc-m0.TotalAlloc) / probes
	// Everything else a probe allocates (the RSS scan, the B-tree descent,
	// the decoded row) stays well under this; a capacity-sized arena alone
	// is 6 KB.
	const bound = 2048
	if perProbe > bound {
		t.Fatalf("one-row probe allocated %.0f bytes per call, bound %d", perProbe, bound)
	}
	t.Logf("one-row probe: %.0f bytes per call", perProbe)
}
