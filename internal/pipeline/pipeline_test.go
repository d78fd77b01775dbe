package pipeline

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
)

func benchTables(t *testing.T) (*entity.Dataset, []entity.Record, []entity.Record) {
	t.Helper()
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.TableA[:120], d.TableB[:120]
}

func TestRunEndToEnd(t *testing.T) {
	d, ta, tb := benchTables(t)
	split := entity.SplitPairs(d.Pairs)
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	rep, err := Run(context.Background(), Config{
		Blocker: &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Pool:    split.Train,
	}, client, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 {
		t.Fatal("no candidates blocked")
	}
	if rep.BlockingTime <= 0 {
		t.Error("blocking time not recorded")
	}
	if rep.Result == nil || rep.Result.Ledger.Calls() == 0 {
		t.Error("matcher did not run")
	}
	if !strings.Contains(rep.Summary(), "candidates") {
		t.Errorf("Summary = %q", rep.Summary())
	}
	// Every emitted match must reference real record IDs.
	ids := map[string]bool{}
	for _, r := range append(append([]entity.Record{}, ta...), tb...) {
		ids[r.ID] = true
	}
	for _, m := range rep.Matches {
		if !ids[m.IDA] || !ids[m.IDB] {
			t.Fatalf("match references unknown records: %+v", m)
		}
	}
}

func TestRunFindsTruePairs(t *testing.T) {
	// Against the oracle-backed simulator, blocked true matches should
	// mostly come back as matches.
	d, _, _ := benchTables(t)
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	split := entity.SplitPairs(d.Pairs)
	rep, err := Run(context.Background(), Config{
		Blocker: &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Pool:    split.Train,
		Matcher: core.Config{Batching: core.DiversityBatching, Selection: core.CoveringSelection},
	}, client, d.TableA, d.TableB)
	if err != nil {
		t.Fatal(err)
	}
	gold := map[string]bool{}
	for _, p := range d.Pairs {
		if p.Truth == entity.Match {
			gold[p.Key()] = true
		}
	}
	found := 0
	for _, m := range rep.Matches {
		if gold[m.IDA+"|"+m.IDB] {
			found++
		}
	}
	if found == 0 {
		t.Error("pipeline found no true matches")
	}
}

func TestRunMaxCandidatesGuard(t *testing.T) {
	_, ta, tb := benchTables(t)
	client := llm.NewSimulated(nil, 1)
	_, err := Run(context.Background(), Config{
		Blocker:       &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		MaxCandidates: 1,
	}, client, ta, tb)
	if err == nil || !strings.Contains(err.Error(), "candidate cap") {
		t.Errorf("err = %v, want the candidate cap", err)
	}
}

func TestRunEmptyTables(t *testing.T) {
	client := llm.NewSimulated(nil, 1)
	rep, err := Run(context.Background(), Config{Blocker: &blocking.TokenBlocker{MinShared: 2}}, client, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 0 || len(rep.Matches) != 0 {
		t.Errorf("empty run = %+v", rep)
	}
}

// TestRunRequiresBlocker: Run has no blocker of its own (the product
// default lives in the batcher facade), so a nil Config.Blocker is an
// error before the journal is stamped.
func TestRunRequiresBlocker(t *testing.T) {
	_, ta, tb := benchTables(t)
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "run")
	j, err := runstore.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ctx, Config{Journal: j}, llm.NewSimulated(nil, 1), ta[:20], tb[:20])
	if err == nil || rep != nil {
		t.Fatalf("nil blocker: report %v, err %v; want a nil report and an error", rep, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = runstore.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.State().Empty() {
		t.Error("nil blocker stamped the journal")
	}
}
