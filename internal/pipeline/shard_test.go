package pipeline

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/cascade"
	"batcher/internal/core"
	"batcher/internal/cost"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
	"batcher/internal/shard"
)

// shardScenario parameterizes the shard-merge equivalence property.
type shardScenario struct {
	// n is the shard count.
	n int
	// cascade routes windows through the pre-filter and two LLM tiers.
	cascade bool
	// shared supplies a caller pool instead of per-window self-pooling.
	shared bool
	// inFlight is each shard's Config.InFlightWindows.
	inFlight int
}

// exactDollarsEqual is the sharded-run strengthening of ledgerEqual's
// tolerance check: a merged journal replays the shards' per-batch
// deltas in exactly the baseline's fold order, so the floating-point
// dollar totals must match bit for bit, overall and per tier.
func exactDollarsEqual(t *testing.T, tag string, got, want *cost.Ledger) {
	t.Helper()
	if got.API() != want.API() {
		t.Errorf("%s: api dollars = %v, want exactly %v", tag, got.API(), want.API())
	}
	gt, wt := got.TierBreakdown(), want.TierBreakdown()
	if len(gt) != len(wt) {
		t.Errorf("%s: tier buckets = %+v, want %+v", tag, gt, wt)
		return
	}
	for i := range wt {
		if gt[i].Dollars != wt[i].Dollars {
			t.Errorf("%s: tier %s dollars = %v, want exactly %v", tag, wt[i].Tier, gt[i].Dollars, wt[i].Dollars)
		}
	}
}

// runShardAllBoundaries drives one shard to completion the hard way:
// every attempt is given exactly one fresh batch before an injected
// crash, so the shard's journal lives through a crash at every batch
// boundary it has, and a resume across each. The persistent cache keeps
// re-issued prompts free, so across all attempts every batch reaches
// the backend exactly once.
func runShardAllBoundaries(t *testing.T, newCfg func(*runstore.Journal, shard.Spec) Config, sp shard.Spec, backend llm.Client, jdir, cdir string, ta, tb []entity.Record, tiered bool) {
	t.Helper()
	ctx := context.Background()
	var lastErr error
	for attempt := 0; attempt <= 2000; attempt++ {
		j, err := runstore.OpenJournal(ctx, jdir)
		if err != nil {
			t.Fatal(err)
		}
		var crash llm.Client
		if tiered {
			// A cascade batch's cheap call and escalated retry share one
			// prompt; the unit counter keeps the pair atomic so the crash
			// still lands on a batch boundary.
			crash = &failAfterUnits{inner: backend, left: 1, seen: map[string]bool{}}
		} else {
			crash = &failAfter{inner: backend, left: 1}
		}
		c, err := runstore.OpenCache(ctx, crash, cdir, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := Run(ctx, newCfg(j, sp), c, ta, tb)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if runErr == nil {
			return
		}
		lastErr = runErr
	}
	t.Fatalf("shard %s did not converge across crash/resume cycles; last error: %v", sp, lastErr)
}

// runShardMergeProperty is the tentpole equivalence property: N shard
// runs — each crashed and resumed at every one of its batch boundaries
// — merged by the coordinator must reproduce the uninterrupted
// single-process run byte for byte: identical predictions and matches,
// exactly equal per-tier ledger dollars, identical auto-resolved
// counts, zero LLM calls during the merged replay, and zero
// double-billed calls across every shard attempt.
func runShardMergeProperty(t *testing.T, sc shardScenario) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	oracle := llm.BuildOracle(d.Pairs)
	var pf *cascade.Prefilter
	if sc.cascade {
		pf = beerPrefilter(t, d)
	}
	newCfg := func(j *runstore.Journal, sp shard.Spec) Config {
		cfg := Config{
			Blocker:         &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
			Matcher:         core.Config{BatchSize: 4, Seed: 1},
			StreamWindow:    16,
			InFlightWindows: sc.inFlight,
			Shard:           sp,
			Journal:         j,
		}
		if sc.cascade {
			cfg.Matcher.Model = llm.GPT4
			cfg.Matcher.CheapModel = llm.GPT35Turbo0301
			cfg.Matcher.EscalateMargin = 0.15
			cfg.Prefilter = pf
		}
		if sc.shared {
			cfg.Pool = entity.SplitPairs(d.Pairs).Train
		}
		return cfg
	}
	sim := newMemoSim(oracle) // every shard attempt re-issues the baseline's prompts
	newBackend := func() llm.Client {
		if sc.cascade {
			return cascadeOver(sim)
		}
		return sim
	}

	// Uninterrupted single-process baseline: no journal, no shard spec.
	base := &countingClient{inner: newBackend()}
	baseRep, err := Run(context.Background(), newCfg(nil, shard.Spec{}), base, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()
	if baseRep.Windows < 3 {
		t.Fatalf("want a multi-window stream, got %d windows", baseRep.Windows)
	}

	// Run each shard through its full crash gauntlet.
	dir := t.TempDir()
	shardDirs := make([]string, sc.n)
	fresh := 0
	for i := 0; i < sc.n; i++ {
		sp := shard.Spec{Index: i, Count: sc.n}
		shardDirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		backend := &countingClient{inner: newBackend()}
		runShardAllBoundaries(t, newCfg, sp, backend,
			shardDirs[i], filepath.Join(dir, fmt.Sprintf("cache-%d", i)), ta, tb, sc.cascade)
		fresh += backend.Calls()
	}
	// Zero double-billing, zero gaps: across every shard and every
	// crash/resume attempt, the backend saw exactly the baseline's calls.
	if fresh != totalCalls {
		t.Errorf("backend calls across all shards = %d, want %d (each batch billed exactly once)", fresh, totalCalls)
	}

	merged := filepath.Join(dir, "merged")
	sum, err := shard.Merge(context.Background(), shardDirs, merged)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if sum.Shards != sc.n || sum.Windows != baseRep.Windows {
		t.Errorf("merge summary = %d shards / %d windows, want %d / %d",
			sum.Shards, sum.Windows, sc.n, baseRep.Windows)
	}

	// Replay the merged journal as an ordinary (unsharded) resumed run.
	// The zero-budget client proves no pair reaches an LLM: the journal
	// alone must reproduce the baseline.
	jm, err := runstore.OpenJournal(context.Background(), merged)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	rep, err := Run(context.Background(), newCfg(jm, shard.Spec{}), &failAfter{}, ta, tb)
	if err != nil {
		t.Fatalf("merged replay failed: %v", err)
	}

	predsEqual(t, "merged", rep.Result.Pred, baseRep.Result.Pred)
	if len(rep.Matches) != len(baseRep.Matches) {
		t.Fatalf("matches = %d, want %d", len(rep.Matches), len(baseRep.Matches))
	}
	for i := range baseRep.Matches {
		if rep.Matches[i] != baseRep.Matches[i] {
			t.Fatalf("match[%d] = %+v, want %+v", i, rep.Matches[i], baseRep.Matches[i])
		}
	}
	ledgerEqual(t, "merged", &rep.Result.Ledger, &baseRep.Result.Ledger)
	tiersEqual(t, "merged", &rep.Result.Ledger, &baseRep.Result.Ledger)
	exactDollarsEqual(t, "merged", &rep.Result.Ledger, &baseRep.Result.Ledger)
	if rep.AutoResolved != baseRep.AutoResolved {
		t.Errorf("auto-resolved = %d, want %d", rep.AutoResolved, baseRep.AutoResolved)
	}
	if rep.Result.PromptTokens != baseRep.Result.PromptTokens {
		t.Errorf("prompt tokens = %d, want %d", rep.Result.PromptTokens, baseRep.Result.PromptTokens)
	}
	if rep.Result.Ledger.LabeledPairs() != baseRep.Result.Ledger.LabeledPairs() {
		t.Errorf("demos labeled = %d, want %d", rep.Result.Ledger.LabeledPairs(), baseRep.Result.Ledger.LabeledPairs())
	}
	if rep.Replayed != rep.Candidates-rep.AutoResolved {
		t.Errorf("merged replay matched %d pairs live, want the journal to cover all %d",
			rep.Candidates-rep.AutoResolved-rep.Replayed, rep.Candidates-rep.AutoResolved)
	}
}

// TestShardMergeEquivalence is the headline property across shard
// counts, N = 1 included: a single "0/1" shard merged alone must also
// equal the unsharded run.
func TestShardMergeEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			runShardMergeProperty(t, shardScenario{n: n})
		})
	}
}

// TestShardMergeEquivalenceCascade runs the property with the
// pre-filter and both LLM tiers in play: the merged ledger must
// reproduce the baseline's TierBreakdown buckets exactly.
func TestShardMergeEquivalenceCascade(t *testing.T) {
	runShardMergeProperty(t, shardScenario{n: 3, cascade: true})
}

// TestShardMergeEquivalenceSharedPool exercises the pool-global label
// dedup across shards: each shard annotates its own demonstrations, but
// the merged run must bill each distinct pool pair exactly once, like
// the baseline.
func TestShardMergeEquivalenceSharedPool(t *testing.T) {
	runShardMergeProperty(t, shardScenario{n: 2, shared: true})
}

// TestShardMergeEquivalencePipelined runs each shard with several
// windows in flight at each crash; the ordered committer must keep
// shard journals identical to K = 1 ones, so the merge still reproduces
// the baseline.
func TestShardMergeEquivalencePipelined(t *testing.T) {
	runShardMergeProperty(t, shardScenario{n: 3, inFlight: 3})
}

// TestShardRejectsResumeUnderDifferentSpec guards the shard
// fingerprint: a journal written as shard 0/2 must refuse to resume as
// 1/2, as unsharded, and vice versa.
func TestShardRejectsResumeUnderDifferentSpec(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:60], d.TableB[:60]
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	newCfg := func(j *runstore.Journal, sp shard.Spec) Config {
		return Config{
			Blocker:      &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
			Matcher:      core.Config{BatchSize: 4, Seed: 1},
			StreamWindow: 16,
			Shard:        sp,
			Journal:      j,
		}
	}
	dir := filepath.Join(t.TempDir(), "run")
	j1, err := runstore.OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), newCfg(j1, shard.Spec{Index: 0, Count: 2}), client, ta, tb); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	for _, sp := range []shard.Spec{{Index: 1, Count: 2}, {Index: 0, Count: 3}, {}} {
		j, err := runstore.OpenJournal(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := Run(context.Background(), newCfg(j, sp), client, ta, tb)
		j.Close()
		if !errors.Is(runErr, runstore.ErrRunMismatch) {
			t.Errorf("resume as %q over a 0/2 journal = %v, want ErrRunMismatch", sp, runErr)
		}
	}
}

// heldClient answers no call until release is closed, so the window
// that issues the first call keeps its slot for as long as the test
// needs.
type heldClient struct {
	inner   llm.Client
	release chan struct{}
}

func (c heldClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	select {
	case <-c.release:
		return c.inner.Complete(ctx, req)
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
}

// yieldCounter counts the candidates its blocker's stream yields and
// closes reached when the count hits target.
type yieldCounter struct {
	blocking.Blocker
	target  int64
	reached chan struct{}
	yielded atomic.Int64
}

func (b *yieldCounter) BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error] {
	return func(yield func(entity.Pair, error) bool) {
		for p, err := range b.Blocker.BlockStream(ctx, tableA, tableB) {
			if b.yielded.Add(1) == b.target {
				close(b.reached)
			}
			if !yield(p, err) {
				return
			}
		}
	}
}

// TestShardSkipsForeignWindowsWithoutASlot pins that a window another
// shard owns never waits for a slot: at K = 1, while the shard's first
// window holds the only slot (its LLM calls are held), blocking runs on
// through the foreign windows behind it to the first pair of the
// shard's next window.
func TestShardSkipsForeignWindowsWithoutASlot(t *testing.T) {
	const window = 8
	ta, tb := syntheticTables(400)
	tokens := &blocking.TokenBlocker{Attr: "title", MinShared: 2}
	pairs := blockAll(t, tokens, ta, tb)

	// The first spec whose first owned window is followed by at least
	// two foreign ones; next is the first pair of its next owned window.
	var sp shard.Spec
	next := -1
	for count := 2; count <= 5 && next < 0; count++ {
		for idx := 0; idx < count && next < 0; idx++ {
			s := shard.Spec{Index: idx, Count: count}
			var owned []int
			for w := 0; w*window < len(pairs) && len(owned) < 2; w++ {
				if s.Owns(pairs[w*window].Key()) {
					owned = append(owned, w)
				}
			}
			if len(owned) == 2 && owned[1]-owned[0] > 2 {
				sp, next = s, owned[1]*window
			}
		}
	}
	if next < 0 {
		t.Fatal("no spec over counts 2-5 has two foreign windows after its first owned one")
	}

	blocker := &yieldCounter{Blocker: tokens, target: int64(next) + 1, reached: make(chan struct{})}
	client := heldClient{inner: llm.NewSimulated(nil, 1), release: make(chan struct{})}
	var committed atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Config{
			Blocker:         blocker,
			Matcher:         fastMatcher(),
			StreamWindow:    window,
			InFlightWindows: 1,
			Shard:           sp,
			Progress:        func(p Progress) { committed.Store(int64(p.Windows)) },
		}, client, ta, tb)
		done <- err
	}()
	select {
	case <-blocker.reached:
	case <-time.After(3 * time.Second):
	}
	got, wins := blocker.yielded.Load(), committed.Load()
	close(client.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if wins != 0 {
		t.Fatalf("%d windows committed while every LLM call was held", wins)
	}
	if got <= int64(next) {
		t.Fatalf("shard %s stalled at %d pairs while its first window held the slot; blocking must reach its next window at pair %d", sp, got, next)
	}
}
