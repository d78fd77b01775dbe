package pipeline

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
	"batcher/internal/shard"
)

// stormProfile is the standing fault storm of the chaos property tests:
// ~90% of the first two attempts of every distinct request fail, spread
// across all four injected fault classes. RetryAfter stays zero so the
// retry loop never really sleeps and the suite stays fast.
func stormProfile() llm.FaultProfile {
	return llm.FaultProfile{
		Throttle:  0.25,
		Overload:  0.25,
		Transport: 0.25,
		Torn:      0.15,
		MaxFaults: 2,
	}
}

// outageProfile fails every attempt, forever: a backend that is simply
// down.
func outageProfile() llm.FaultProfile {
	return llm.FaultProfile{Overload: 1, MaxFaults: 1 << 30}
}

// chaosTables is the shared Beer workload of the chaos suite.
func chaosTables(t *testing.T) (*entity.Dataset, []entity.Record, []entity.Record, llm.Oracle) {
	t.Helper()
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.TableA[:90], d.TableB[:90], llm.BuildOracle(d.Pairs)
}

func chaosCfg(streamWindow, inFlight int, j *runstore.Journal) Config {
	return Config{
		Blocker:         &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Matcher:         core.Config{BatchSize: 4, Seed: 1},
		StreamWindow:    streamWindow,
		InFlightWindows: inFlight,
		Journal:         j,
	}
}

// runChaosEquivalence is the first half of the chaos property: under a
// deterministic fault storm that the retry middleware can absorb, every
// executor shape must complete with predictions, matches, and ledger
// byte-identical to the fault-free run — and the backend must see
// exactly the fault-free call sequence, because injected faults never
// reach it and absorbed faults never bill.
func runChaosEquivalence(t *testing.T, streamWindow, inFlight int) {
	_, ta, tb, oracle := chaosTables(t)

	base := &countingClient{inner: llm.NewSimulated(oracle, 1)}
	baseRep, err := Run(context.Background(), chaosCfg(streamWindow, inFlight, nil), base, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()
	if totalCalls < 4 {
		t.Fatalf("want a multi-batch run, got %d calls", totalCalls)
	}

	backend := &countingClient{inner: llm.NewSimulated(oracle, 1)}
	chaos := llm.NewChaos(backend, stormProfile(), 42)
	retry := llm.NewRetryingSeeded(chaos, 5, 0, 42)
	rep, err := Run(context.Background(), chaosCfg(streamWindow, inFlight, nil), retry, ta, tb)
	if err != nil {
		t.Fatalf("run under chaos failed: %v", err)
	}

	predsEqual(t, "chaos", rep.Result.Pred, baseRep.Result.Pred)
	if len(rep.Matches) != len(baseRep.Matches) {
		t.Errorf("matches = %d, want %d", len(rep.Matches), len(baseRep.Matches))
	}
	ledgerEqual(t, "chaos", &rep.Result.Ledger, &baseRep.Result.Ledger)
	exactDollarsEqual(t, "chaos", &rep.Result.Ledger, &baseRep.Result.Ledger)
	if rep.Result.PromptTokens != baseRep.Result.PromptTokens {
		t.Errorf("prompt tokens = %d, want %d", rep.Result.PromptTokens, baseRep.Result.PromptTokens)
	}
	if backend.Calls() != totalCalls {
		t.Errorf("backend calls under chaos = %d, want %d (faults never billed)", backend.Calls(), totalCalls)
	}
	if chaos.Injected() == 0 {
		t.Error("chaos injected nothing; the storm is not exercising the stack")
	}
	if retry.Retries() != chaos.Injected() {
		t.Errorf("retries = %d, injected faults = %d; every fault should cost exactly one retry",
			retry.Retries(), chaos.Injected())
	}
	if rep.Degraded != 0 {
		t.Errorf("Degraded = %d on a fully absorbed storm", rep.Degraded)
	}
}

func TestChaosEquivalenceCollected(t *testing.T) { runChaosEquivalence(t, 0, 0) }
func TestChaosEquivalenceWindowed(t *testing.T)  { runChaosEquivalence(t, 16, 0) }
func TestChaosEquivalencePipelined(t *testing.T) { runChaosEquivalence(t, 16, 3) }

// runChaosAbortResume is the second half: when the stack cannot absorb
// the faults (no retries against a storm), the run must abort cleanly;
// one resume over the same journal and cache with an adequate retry
// budget must then converge to the fault-free run with every backend
// call made exactly once across both attempts.
func runChaosAbortResume(t *testing.T, streamWindow, inFlight int) {
	_, ta, tb, oracle := chaosTables(t)

	base := &countingClient{inner: llm.NewSimulated(oracle, 1)}
	baseRep, err := Run(context.Background(), chaosCfg(streamWindow, inFlight, nil), base, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()

	dir := t.TempDir()
	backend := &countingClient{inner: llm.NewSimulated(oracle, 1)}
	profile := llm.FaultProfile{Transport: 1, MaxFaults: 1}

	// Attempt 1: every request's first attempt fails and there is no
	// retry budget; the run aborts before anything is billed.
	j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := runstore.OpenCache(context.Background(),
		llm.NewRetryingSeeded(llm.NewChaos(backend, profile, 9), 1, 0, 1),
		filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, runErr := Run(context.Background(), chaosCfg(streamWindow, inFlight, j1), c1, ta, tb); runErr == nil {
		t.Fatal("storm without retries did not abort")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if backend.Calls() != 0 {
		t.Fatalf("aborted run reached the backend %d times", backend.Calls())
	}

	// Attempt 2: the same chaos seed replays the same fault schedule,
	// but three attempts outlast MaxFaults = 1.
	j2, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	chaos2 := llm.NewChaos(backend, profile, 9)
	c2, err := runstore.OpenCache(context.Background(),
		llm.NewRetryingSeeded(chaos2, 3, 0, 1), filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep, err := Run(context.Background(), chaosCfg(streamWindow, inFlight, j2), c2, ta, tb)
	if err != nil {
		t.Fatalf("resume under absorbable chaos failed: %v", err)
	}

	predsEqual(t, "resumed", rep.Result.Pred, baseRep.Result.Pred)
	ledgerEqual(t, "resumed", &rep.Result.Ledger, &baseRep.Result.Ledger)
	if backend.Calls() != totalCalls {
		t.Errorf("backend calls across abort + resume = %d, want %d (exactly once each)",
			backend.Calls(), totalCalls)
	}
	if chaos2.Injected() == 0 {
		t.Error("resume saw no injected faults; the schedule did not replay")
	}
}

func TestChaosAbortResumeWindowed(t *testing.T)  { runChaosAbortResume(t, 16, 0) }
func TestChaosAbortResumePipelined(t *testing.T) { runChaosAbortResume(t, 16, 3) }

// TestChaosShardMergeEquivalence runs the 3-shard merge property under
// the fault storm: two shards absorb it with retries, one aborts
// cleanly first (no retry budget) and resumes once. The merged journal
// must replay to the fault-free unsharded baseline — exact per-tier
// dollars — with zero LLM calls and zero double-billing.
func TestChaosShardMergeEquivalence(t *testing.T) {
	_, ta, tb, oracle := chaosTables(t)
	shardCfg := func(j *runstore.Journal, sp shard.Spec) Config {
		cfg := chaosCfg(16, 0, j)
		cfg.Shard = sp
		return cfg
	}

	base := &countingClient{inner: llm.NewSimulated(oracle, 1)}
	baseRep, err := Run(context.Background(), shardCfg(nil, shard.Spec{}), base, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()
	if baseRep.WindowsTotal < 3 {
		t.Fatalf("want a multi-window stream, got %d windows", baseRep.WindowsTotal)
	}

	dir := t.TempDir()
	const n = 3
	shardDirs := make([]string, n)
	fresh := 0
	for i := 0; i < n; i++ {
		sp := shard.Spec{Index: i, Count: n}
		shardDirs[i] = filepath.Join(dir, "shard-"+sp.String()[:1])
		cdir := filepath.Join(dir, "cache-"+sp.String()[:1])
		backend := &countingClient{inner: llm.NewSimulated(oracle, 1)}

		if i == 0 {
			// Shard 0 first meets the storm with no retry budget: it must
			// abort cleanly without billing anything.
			j, err := runstore.OpenJournal(context.Background(), shardDirs[i])
			if err != nil {
				t.Fatal(err)
			}
			c, err := runstore.OpenCache(context.Background(),
				llm.NewRetryingSeeded(llm.NewChaos(backend, stormProfile(), int64(100+i)), 1, 0, 1), cdir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, runErr := Run(context.Background(), shardCfg(j, sp), c, ta, tb); runErr == nil {
				t.Fatal("shard 0 absorbed the storm without retries")
			}
			c.Close()
			j.Close()
		}

		j, err := runstore.OpenJournal(context.Background(), shardDirs[i])
		if err != nil {
			t.Fatal(err)
		}
		c, err := runstore.OpenCache(context.Background(),
			llm.NewRetryingSeeded(llm.NewChaos(backend, stormProfile(), int64(100+i)), 5, 0, int64(i)), cdir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), shardCfg(j, sp), c, ta, tb); err != nil {
			t.Fatalf("shard %d under chaos failed: %v", i, err)
		}
		c.Close()
		j.Close()
		fresh += backend.Calls()
	}
	if fresh != totalCalls {
		t.Errorf("backend calls across all shards = %d, want %d (each batch billed exactly once)", fresh, totalCalls)
	}

	merged := filepath.Join(dir, "merged")
	if _, err := shard.Merge(context.Background(), shardDirs, merged); err != nil {
		t.Fatalf("merge: %v", err)
	}
	jm, err := runstore.OpenJournal(context.Background(), merged)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	rep, err := Run(context.Background(), shardCfg(jm, shard.Spec{}), &failAfter{}, ta, tb)
	if err != nil {
		t.Fatalf("merged replay failed: %v", err)
	}
	predsEqual(t, "merged", rep.Result.Pred, baseRep.Result.Pred)
	ledgerEqual(t, "merged", &rep.Result.Ledger, &baseRep.Result.Ledger)
	exactDollarsEqual(t, "merged", &rep.Result.Ledger, &baseRep.Result.Ledger)
	if rep.Replayed != rep.Candidates {
		t.Errorf("merged replay served %d of %d from the journal", rep.Replayed, rep.Candidates)
	}
}

// TestDegradeUnknownOutageThenRepair drives a windowed run through a
// total backend outage with breaker + DegradeUnknown: the run completes
// with every window degraded and nothing billed, the journal holds only
// repairable placeholders, and a healthy resume over the same journal
// repairs it to the fault-free run with every call billed exactly once.
func TestDegradeUnknownOutageThenRepair(t *testing.T) {
	_, ta, tb, oracle := chaosTables(t)
	cfg := func(j *runstore.Journal) Config {
		c := chaosCfg(16, 0, j)
		c.Matcher.Degrade = core.DegradeUnknown
		return c
	}

	base := &countingClient{inner: llm.NewSimulated(oracle, 1)}
	baseRep, err := Run(context.Background(), cfg(nil), base, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()

	dir := t.TempDir()
	backend := &countingClient{inner: llm.NewSimulated(oracle, 1)}

	// Outage run: the breaker trips on the storm's first batch and every
	// batch after it degrades to Unknown without touching the backend.
	j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	breaker := llm.NewBreaker(llm.NewChaos(backend, outageProfile(), 7), 2, time.Hour)
	stack := llm.NewRetryingSeeded(breaker, 3, 0, 1)
	c1, err := runstore.OpenCache(context.Background(), stack, filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(context.Background(), cfg(j1), c1, ta, tb)
	if err != nil {
		t.Fatalf("degraded run failed instead of completing: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if rep1.Degraded != rep1.Windows || rep1.Degraded == 0 {
		t.Fatalf("Degraded = %d of %d windows, want all of them", rep1.Degraded, rep1.Windows)
	}
	if rep1.Result.Degraded == 0 {
		t.Fatal("no degraded batches recorded on the aggregate result")
	}
	for i, p := range rep1.Result.Pred {
		if p != entity.Unknown {
			t.Fatalf("pred[%d] = %v during the outage, want Unknown", i, p)
		}
	}
	if backend.Calls() != 0 {
		t.Errorf("outage run reached the backend %d times", backend.Calls())
	}
	if rep1.Result.Ledger.API() != 0 {
		t.Errorf("outage run billed $%v", rep1.Result.Ledger.API())
	}
	if breaker.Opens() == 0 || breaker.Rejections() == 0 {
		t.Errorf("breaker opens=%d rejections=%d, want the outage to trip it", breaker.Opens(), breaker.Rejections())
	}

	// Repair run: healthy backend, same journal and cache. Every window
	// is incomplete (placeholders don't count), so everything re-resolves
	// and the result converges to the fault-free baseline.
	j2, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2, err := runstore.OpenCache(context.Background(), backend, filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep2, err := Run(context.Background(), cfg(j2), c2, ta, tb)
	if err != nil {
		t.Fatalf("repair run failed: %v", err)
	}
	if rep2.Degraded != 0 || rep2.Result.Degraded != 0 {
		t.Errorf("repair left %d degraded windows / %d batches", rep2.Degraded, rep2.Result.Degraded)
	}
	predsEqual(t, "repaired", rep2.Result.Pred, baseRep.Result.Pred)
	ledgerEqual(t, "repaired", &rep2.Result.Ledger, &baseRep.Result.Ledger)
	if rep2.Result.PromptTokens != baseRep.Result.PromptTokens {
		t.Errorf("prompt tokens = %d, want %d", rep2.Result.PromptTokens, baseRep.Result.PromptTokens)
	}
	if backend.Calls() != totalCalls {
		t.Errorf("backend calls across outage + repair = %d, want %d (exactly once each)",
			backend.Calls(), totalCalls)
	}
}

// TestDegradeCheapOnlyCascadeThenRepair is the cascade variant: the
// expensive tier suffers a total outage behind its own breaker, escalating
// batches stand on their cheap answers (spend preserved), and a healthy
// resume repairs the run to the fault-free cascade baseline — identical
// per-tier ledgers, with the degraded run's cheap calls never re-billed.
func TestDegradeCheapOnlyCascadeThenRepair(t *testing.T) {
	d, ta, tb, oracle := chaosTables(t)
	pf := beerPrefilter(t, d)
	cfg := func(j *runstore.Journal, degrade core.DegradePolicy) Config {
		c := chaosCfg(16, 0, j)
		c.Matcher.Model = llm.GPT4
		c.Matcher.CheapModel = llm.GPT35Turbo0301
		c.Matcher.EscalateMargin = 0.15
		c.Matcher.Degrade = degrade
		c.Prefilter = pf
		return c
	}

	sim := llm.NewSimulated(oracle, 1)
	cheapBase := &countingClient{inner: flakyCheap{inner: sim}}
	expBase := &countingClient{inner: sim}
	baseRep, err := Run(context.Background(), cfg(nil, core.DegradeFailFast),
		llm.NewTiered(cheapBase, expBase), ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if tiers := baseRep.Result.Ledger.TierBreakdown(); len(tiers) != 2 {
		t.Fatalf("baseline tiers = %+v, want both exercised", tiers)
	}

	dir := t.TempDir()
	sim2 := llm.NewSimulated(oracle, 1)
	cheap := &countingClient{inner: flakyCheap{inner: sim2}}
	exp := &countingClient{inner: sim2}

	// Outage run: only the expensive tier is down, behind its own
	// breaker; DegradeCheapOnly keeps escalating batches on their cheap
	// answers.
	j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	expStack := llm.NewRetryingSeeded(llm.NewBreaker(llm.NewChaos(exp, outageProfile(), 11), 2, time.Hour), 3, 0, 1)
	c1, err := runstore.OpenCache(context.Background(),
		llm.NewTiered(cheap, expStack), filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(context.Background(), cfg(j1, core.DegradeCheapOnly), c1, ta, tb)
	if err != nil {
		t.Fatalf("degraded cascade run failed instead of completing: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if rep1.Degraded == 0 || rep1.Result.Degraded == 0 {
		t.Fatal("expensive-tier outage degraded nothing; the cascade never escalated")
	}
	if exp.Calls() != 0 {
		t.Errorf("outage run reached the expensive backend %d times", exp.Calls())
	}

	// Repair run: healthy tiers, same journal and cache. Cheap attempts
	// replay as free cache hits; only the expensive escalations bill.
	j2, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2, err := runstore.OpenCache(context.Background(),
		llm.NewTiered(cheap, exp), filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep2, err := Run(context.Background(), cfg(j2, core.DegradeCheapOnly), c2, ta, tb)
	if err != nil {
		t.Fatalf("repair run failed: %v", err)
	}
	if rep2.Degraded != 0 {
		t.Errorf("repair left %d degraded windows", rep2.Degraded)
	}
	predsEqual(t, "repaired", rep2.Result.Pred, baseRep.Result.Pred)
	ledgerEqual(t, "repaired", &rep2.Result.Ledger, &baseRep.Result.Ledger)
	tiersEqual(t, "repaired", &rep2.Result.Ledger, &baseRep.Result.Ledger)
	if rep2.AutoResolved != baseRep.AutoResolved {
		t.Errorf("auto-resolved = %d, want %d", rep2.AutoResolved, baseRep.AutoResolved)
	}
	if rep2.Result.PromptTokens != baseRep.Result.PromptTokens {
		t.Errorf("prompt tokens = %d, want %d", rep2.Result.PromptTokens, baseRep.Result.PromptTokens)
	}
	if cheap.Calls() != cheapBase.Calls() {
		t.Errorf("cheap backend calls across outage + repair = %d, want %d (degraded attempts never re-billed)",
			cheap.Calls(), cheapBase.Calls())
	}
	if exp.Calls() != expBase.Calls() {
		t.Errorf("expensive backend calls across outage + repair = %d, want %d",
			exp.Calls(), expBase.Calls())
	}
}
