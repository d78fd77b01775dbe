// Command ermatch runs the full ER pipeline on two CSV tables: blocking,
// batch prompting with BATCHER's best design point, and match output.
//
// The LLM defaults to the offline simulator (useful for demos and smoke
// tests; it answers from structural similarity when pairs carry no gold
// labels). Pass -api-base/-api-key to use a live OpenAI-compatible
// endpoint instead.
//
// Every run goes through one window executor with two parameters.
// -stream-window N cuts the candidate stream into windows of N pairs:
// blocking and matching overlap (the progress line shows both stages
// advancing), result rows are written as each window commits, and peak
// candidate memory is bounded by the windows in flight instead of the
// candidate count. The default (0) is a single window holding every
// candidate: blocking finishes before matching starts, as the paper
// evaluates it. Predictions depend on the window size.
//
// -in-flight K (default: one) lets up to K windows execute concurrently —
// one window's CPU-side preparation overlapping other windows' LLM
// calls — while results still commit in window order, so the output
// rows, cost ledger, and journal are exactly those of K = 1. The
// progress line gains an "in flight" stage counter. Memory grows to
// about (K+1) windows of candidates.
//
// An interrupted run (Ctrl-C, API failure) exits 1 but keeps what was
// paid for: rows answered before the stop are written (unanswered
// candidates of the window it stopped in as "0", windows not yet started
// not at all) and the partial cost ledger is printed.
//
// With -run-id the run is durable: every answered batch is journaled
// under -run-dir as it completes, and re-running with the same -run-id
// plus -resume replays the journaled pairs (the progress line counts
// them as "replayed") and continues matching from the first unanswered
// window, billing nothing twice. Add -cache-dir for a persistent
// response cache so even the window that was mid-flight at the crash
// resumes free, and so separate experiments over the same data share
// answers.
//
// With -cascade, a calibrated pre-filter is trained on a bootstrap-
// labeled sample of the candidates before matching: pairs it scores
// below -tau-lo or above -tau-hi are auto-resolved for free, and only
// the ambiguous band reaches the LLM — first the -cheap-model tier,
// escalating to -model when a batch's vote margin falls under
// -escalate-margin or the cheap tier answers Unknown. The final ledger
// then reports spend per tier.
//
// With -shard i/N (plus -stream-window and -run-id), the process runs
// only shard i of an N-way partition of the candidate stream: windows
// whose partition key hashes to i modulo N. Run all N shards — any
// order, any machines that see the same input tables — each with its
// own -run-id journal; each shard crashes and resumes independently.
// Then -merge-shards dir/ (where dir holds the N shard journal
// directories) verifies the set and merges it into dir/merged, and
// replays the merged journal to emit the same rows and ledger the
// uninterrupted single-process run would have produced, with zero LLM
// calls. The merge replay must be given the same tables and matcher
// flags as the shards, or it fails with a fingerprint mismatch.
//
// Usage:
//
//	ermatch -a tableA.csv -b tableB.csv -attr title -out matches.csv
//	ermatch -a a.csv -b b.csv -attr title -cascade -tau-lo 0.05 -tau-hi 0.95
//	ermatch -a big_a.csv -b big_b.csv -attr title -stream-window 512
//	ermatch -a big_a.csv -b big_b.csv -attr title -stream-window 512 -in-flight 4
//	ermatch -a a.csv -b b.csv -run-id nightly -cache-dir .ermatch/cache
//	ermatch -a a.csv -b b.csv -run-id nightly -resume -cache-dir .ermatch/cache
//	ermatch -a a.csv -b b.csv -stream-window 512 -shard 0/3 -run-dir runs -run-id shard-0
//	ermatch -a a.csv -b b.csv -stream-window 512 -merge-shards runs -out matches.csv
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"batcher/batcher"
)

// chaosProfile maps a -chaos preset name to a fault profile. "mild"
// sprinkles occasional transient faults; "aggressive" is the CI soak
// profile — heavy fault rates on every class, several faults per
// request — that a -retries budget must absorb without changing output.
func chaosProfile(name string) (batcher.FaultProfile, error) {
	switch name {
	case "mild":
		return batcher.FaultProfile{
			Throttle: 0.05, Overload: 0.05, Transport: 0.05, Torn: 0.02,
			RetryAfter: time.Millisecond, MaxFaults: 1,
		}, nil
	case "aggressive":
		return batcher.FaultProfile{
			Throttle: 0.25, Overload: 0.25, Transport: 0.2, Torn: 0.15,
			RetryAfter: time.Millisecond, MaxFaults: 3,
		}, nil
	default:
		return batcher.FaultProfile{}, fmt.Errorf("unknown -chaos profile %q (want mild or aggressive)", name)
	}
}

func main() {
	pathA := flag.String("a", "", "CSV file for table A (header row, optional id column)")
	pathB := flag.String("b", "", "CSV file for table B")
	attr := flag.String("attr", "", "blocking attribute (default: all attributes)")
	minShared := flag.Int("min-shared", 2, "minimum shared tokens for blocking")
	model := flag.String("model", batcher.GPT35Turbo0301, "LLM model name")
	apiBase := flag.String("api-base", "", "OpenAI-compatible API base URL (default: offline simulator)")
	apiKey := flag.String("api-key", "", "API key for -api-base")
	out := flag.String("out", "", "output CSV (default stdout)")
	seed := flag.Int64("seed", 1, "seed for the framework and simulator")
	streamWindow := flag.Int("stream-window", 0,
		"window size: match the candidate stream in windows of this many pairs (0 = one window holding every candidate)")
	inFlight := flag.Int("in-flight", 0,
		"execute up to this many windows concurrently (<= 1 = one at a time; no effect with a single window)")
	maxCandidates := flag.Int("max-candidates", 0,
		"abort once blocking exceeds this many pairs (budget guard; 0 = no cap)")
	runID := flag.String("run-id", "",
		"journal the run under this ID so it can be resumed (empty = not durable)")
	runDir := flag.String("run-dir", ".ermatch/runs", "directory holding run journals")
	resume := flag.Bool("resume", false,
		"continue the journaled run named by -run-id instead of refusing its existing state")
	cacheDir := flag.String("cache-dir", "",
		"persistent response cache directory, shareable across runs (empty = no disk cache)")
	cacheMB := flag.Int64("cache-mb", 0,
		"disk cache size bound in MiB (0 = 256 MiB default)")
	cascadeOn := flag.Bool("cascade", false,
		"route candidates through a calibrated pre-filter and tiered models, spending the LLM budget only on hard pairs")
	tauLo := flag.Float64("tau-lo", 0.05, "cascade: auto-resolve as non-match below this calibrated probability")
	tauHi := flag.Float64("tau-hi", 0.95, "cascade: auto-resolve as match above this calibrated probability")
	cheapModel := flag.String("cheap-model", batcher.GPT35Turbo0301,
		"cascade: cheap-tier model for the ambiguous band (empty = pre-filter only, no tiering)")
	escalateMargin := flag.Float64("escalate-margin", 0,
		"cascade: escalate a cheap-tier batch to -model when its vote-k margin is below this")
	shardFlag := flag.String("shard", "",
		"run only shard i/N of the candidate stream, e.g. 0/3 (needs -stream-window and -run-id)")
	mergeShards := flag.String("merge-shards", "",
		"merge the completed shard journals under this directory into <dir>/merged and replay the merged run (same tables and matcher flags as the shards)")
	retries := flag.Int("retries", 1,
		"max attempts per LLM call for transient failures (1 = no retrying)")
	retryBase := flag.Duration("retry-base", 500*time.Millisecond,
		"base backoff delay for -retries; attempt n sleeps a jittered [0, base<<n), raised to any Retry-After hint")
	breakerFails := flag.Int("breaker-fails", 0,
		"open a circuit breaker after this many consecutive transient failures (0 = no breaker)")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second,
		"how long an open breaker refuses calls before probing the backend again")
	hedgeAfter := flag.Duration("hedge-after", 0,
		"launch a backup request if a call has not finished after this long (0 = no hedging; duplicate spend is reported as waste, outside the ledger)")
	degradeFlag := flag.String("degrade", "fail-fast",
		"policy for batches refused by an open breaker: fail-fast, unknown (answer Unknown, repairable on -resume), or cheap-only (stand on the cascade's cheap answer)")
	chaosFlag := flag.String("chaos", "",
		"inject deterministic transport faults for resilience testing: mild or aggressive (empty = off)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos fault schedule")
	flag.Parse()

	if *pathA == "" || *pathB == "" {
		fmt.Fprintln(os.Stderr, "ermatch: -a and -b are required")
		os.Exit(2)
	}
	var shardSpec batcher.ShardSpec
	if *shardFlag != "" {
		if *mergeShards != "" {
			fatal(errors.New("-shard and -merge-shards are mutually exclusive"))
		}
		var err error
		shardSpec, err = batcher.ParseShardSpec(*shardFlag)
		if err != nil {
			fatal(fmt.Errorf("parsing -shard: %w", err))
		}
		if *runID == "" {
			fatal(errors.New("-shard requires -run-id: each shard journals its own progress for the merge"))
		}
	}
	tableA, err := batcher.ReadCSVTable(*pathA)
	if err != nil {
		fatal(fmt.Errorf("reading -a: %w", err))
	}
	tableB, err := batcher.ReadCSVTable(*pathB)
	if err != nil {
		fatal(fmt.Errorf("reading -b: %w", err))
	}
	fmt.Fprintf(os.Stderr, "ermatch: loaded %d + %d records\n", len(tableA), len(tableB))

	// Ctrl-C cancels the run between LLM calls; rows written so far stay
	// on disk. An output write failure cancels the same way, so a full
	// disk stops the spend instead of matching to completion. The same
	// ctx bounds the journal/cache segment replay at open, so Ctrl-C
	// works while a large previous run is still being loaded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, abort := context.WithCancel(ctx)
	defer abort()

	degrade, err := batcher.ParseDegradePolicy(*degradeFlag)
	if err != nil {
		fatal(fmt.Errorf("parsing -degrade: %w", err))
	}
	var client batcher.Client
	if *apiBase != "" {
		client = batcher.NewOpenAIClient(*apiBase, *apiKey)
	} else {
		client = batcher.NewSimulatedClient(nil, *seed)
	}
	// Resilience middleware composes innermost-first around the base
	// client: chaos (fault injection, tests only), then the breaker, then
	// retrying, then hedging. The disk cache wraps outside all of them, so
	// cached answers never consume retry budget or trip the breaker.
	var chaosC *batcher.ChaosClient
	if *chaosFlag != "" {
		profile, err := chaosProfile(*chaosFlag)
		if err != nil {
			fatal(err)
		}
		chaosC = batcher.NewChaosClient(client, profile, *chaosSeed)
		client = chaosC
	}
	var breaker *batcher.BreakerClient
	if *breakerFails > 0 {
		breaker = batcher.NewBreakerClient(client, *breakerFails, *breakerCooldown)
		client = breaker
	}
	var retryC *batcher.RetryingClient
	if *retries > 1 {
		retryC = batcher.NewRetryingClientSeeded(client, *retries, *retryBase, *seed)
		client = retryC
	}
	var hedgedC *batcher.HedgedClient
	if *hedgeAfter > 0 {
		hedgedC = batcher.NewHedgedClient(client, *hedgeAfter)
		client = hedgedC
	}
	var cache *batcher.DiskCache
	if *cacheDir != "" {
		var err error
		cache, err = batcher.NewDiskCachedClient(ctx, client, *cacheDir, *cacheMB<<20)
		if err != nil {
			fatal(fmt.Errorf("opening -cache-dir %s: %w", *cacheDir, err))
		}
		defer cache.Close()
		client = cache
	}
	var prefilter *batcher.CascadePrefilter
	matcher := []batcher.Option{batcher.WithModel(*model), batcher.WithSeed(*seed)}
	if degrade != batcher.DegradeFailFast {
		matcher = append(matcher, batcher.WithDegrade(degrade))
	}
	if *cascadeOn {
		// Train the calibrated pre-filter on a bootstrap-labeled sample
		// of the candidate stream: no gold labels are needed, and the
		// sample is capped so training stays negligible next to matching.
		const trainCap = 4000
		var sample []batcher.Pair
		for p, err := range batcher.BlockTablesStream(ctx, tableA, tableB, *attr, *minShared) {
			if err != nil {
				fatal(fmt.Errorf("sampling candidates for cascade training: %w", err))
			}
			sample = append(sample, p)
			if len(sample) >= trainCap {
				break
			}
		}
		pf, err := batcher.TrainCascadePrefilter(
			batcher.BootstrapLabels(sample),
			batcher.CascadeConfig{TauLo: *tauLo, TauHi: *tauHi, Seed: *seed})
		if err != nil {
			fatal(fmt.Errorf("training cascade pre-filter: %w", err))
		}
		prefilter = pf
		if *cheapModel != "" && *cheapModel != *model {
			matcher = append(matcher,
				batcher.WithCheapModel(*cheapModel),
				batcher.WithEscalateMargin(*escalateMargin))
		}
		fmt.Fprintf(os.Stderr, "ermatch: cascade pre-filter trained on %d bootstrap-labeled pairs (tau %.2f/%.2f)\n",
			len(sample), *tauLo, *tauHi)
	}

	var journal *batcher.RunJournal
	runName := *runID
	switch {
	case *mergeShards != "":
		if *runID != "" {
			fatal(errors.New("-merge-shards and -run-id are mutually exclusive (the merged run is journaled as <dir>/merged)"))
		}
		shardDirs, err := batcher.DiscoverShardRuns(*mergeShards)
		if err != nil {
			fatal(fmt.Errorf("discovering shard journals under %s: %w", *mergeShards, err))
		}
		if len(shardDirs) == 0 {
			fatal(fmt.Errorf("no shard journals found under %s", *mergeShards))
		}
		sum, err := batcher.MergeShardRuns(ctx, shardDirs, filepath.Join(*mergeShards, "merged"))
		if err != nil {
			fatal(fmt.Errorf("merging shard journals: %w", err))
		}
		fmt.Fprintf(os.Stderr, "ermatch: merged %d shard journals: %d windows, %d matcher pairs\n",
			sum.Shards, sum.Windows, sum.Pairs)
		// Replaying the merged journal through the ordinary resume path
		// reproduces the single-process run's rows and ledger without an
		// LLM call; the fingerprint check makes a flag mismatch loud.
		runName = "merged"
		journal, err = batcher.OpenRunJournal(ctx, *mergeShards, runName, true)
		if err != nil {
			fatal(fmt.Errorf("opening merged journal: %w", err))
		}
		defer journal.Close()
	case *runID != "":
		var err error
		journal, err = batcher.OpenRunJournal(ctx, *runDir, *runID, *resume)
		if err != nil {
			fatal(fmt.Errorf("opening run journal %q: %w", *runID, err))
		}
		defer journal.Close()
	case *resume:
		fatal(errors.New("-resume requires -run-id"))
	}

	w := csv.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(fmt.Errorf("creating -out: %w", err))
		}
		defer f.Close()
		w = csv.NewWriter(f)
	}
	if err := w.Write([]string{"id_a", "id_b", "match"}); err != nil {
		fatal(fmt.Errorf("writing output header: %w", err))
	}
	written, matches := 0, 0
	var writeErr error
	rep, runErr := batcher.RunPipeline(ctx, batcher.PipelineConfig{
		BlockAttr:       *attr,
		MinSharedTokens: *minShared,
		MaxCandidates:   *maxCandidates,
		StreamWindow:    *streamWindow,
		InFlightWindows: *inFlight,
		Journal:         journal,
		Shard:           shardSpec,
		Prefilter:       prefilter,
		Matcher:         matcher,
		// Rows stream out as each window's predictions land, so a huge
		// candidate set never has to fit in memory for output either.
		OnPair: func(p batcher.Pair, label batcher.Label) {
			val := "0"
			if label == batcher.Match {
				val = "1"
				matches++
			}
			if err := w.Write([]string{p.A.ID, p.B.ID, val}); err != nil && writeErr == nil {
				writeErr = err
				abort()
			}
			written++
		},
		Progress: func(pr batcher.PipelineProgress) {
			stage := "blocking"
			if pr.BlockingDone {
				stage = "blocked "
			}
			// Replayed pairs came from the journal: already paid for in a
			// previous attempt, answered here without an LLM call.
			fresh := pr.Matched - pr.Replayed
			fmt.Fprintf(os.Stderr, "\rermatch: %s %d | replayed %d + matched %d (%d windows",
				stage, pr.Blocked, pr.Replayed, fresh, pr.Windows)
			if *inFlight > 1 {
				// Two-stage view of the pipelined run: committed windows
				// plus the ones still being prepared or answered.
				fmt.Fprintf(os.Stderr, ", %d in flight", pr.InFlight)
			}
			fmt.Fprintf(os.Stderr, ") | api=$%.3f", pr.APIUSD)
			if pr.Degraded > 0 {
				fmt.Fprintf(os.Stderr, " | degraded %d", pr.Degraded)
			}
		},
	}, client, tableA, tableB)
	// The run is over; restore default SIGINT handling so a second
	// Ctrl-C can still kill the process during the final flush below.
	stop()
	fmt.Fprintln(os.Stderr)
	// Flush durable state explicitly: the error paths below exit the
	// process, which would skip the deferred Closes and could strand
	// buffered journal or cache records.
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ermatch: closing journal: %v\n", err)
		}
	}
	if cache != nil {
		if err := cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ermatch: closing cache: %v\n", err)
		}
	}
	w.Flush()
	if writeErr == nil {
		writeErr = w.Error()
	}
	if runErr != nil || writeErr != nil {
		// Partial spend is real spend: show the ledger before exiting,
		// whatever stopped the run.
		if rep != nil && rep.Result != nil {
			fmt.Fprintf(os.Stderr, "ermatch: partial %s\n", rep.Result.Ledger.String())
		}
		if writeErr != nil {
			fmt.Fprintf(os.Stderr, "ermatch: writing output: %v\n", writeErr)
		}
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "ermatch: run stopped early: %v (%d rows written)\n", runErr, written)
			// Because every layer wraps with %w, the sentinel survives to
			// here: a mismatched journal gets an actionable hint instead
			// of a buried error string.
			if errors.Is(runErr, batcher.ErrRunMismatch) {
				fmt.Fprintf(os.Stderr, "ermatch: journal %q was written by a different configuration (tables, model, seed, window, shard, or pool mode); re-run with matching flags or pick a new -run-id\n", runName)
			} else if *runID != "" {
				fmt.Fprintf(os.Stderr, "ermatch: resume with: -run-id %s -resume\n", *runID)
			}
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ermatch: %s\n", rep.Result.Ledger.String())
	if rep.AutoResolved > 0 {
		fmt.Fprintf(os.Stderr, "ermatch: %d of %d candidates auto-resolved by the cascade pre-filter (no LLM cost)\n",
			rep.AutoResolved, rep.Candidates)
	}
	if rep.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "ermatch: %d of %d pairs replayed from run journal %q\n",
			rep.Replayed, rep.Candidates, runName)
	}
	if cache != nil {
		h, m := cache.Stats()
		fmt.Fprintf(os.Stderr, "ermatch: response cache: %d hits / %d misses\n", h, m)
	}
	var res batcher.Resilience
	if retryC != nil {
		res.Retries = retryC.Retries()
	}
	if breaker != nil {
		res.BreakerOpens = breaker.Opens()
		res.BreakerRejections = breaker.Rejections()
	}
	if hedgedC != nil {
		st := hedgedC.Stats()
		res.HedgesLaunched = st.Launched
		res.HedgesWon = st.Won
		res.WasteCalls = st.WasteCalls
		res.WasteInputTokens = st.WasteInputTokens
		res.WasteOutputTokens = st.WasteOutputTokens
		res.WasteDollars = batcher.HedgeWasteDollars(*model, st)
	}
	if chaosC != nil {
		res.FaultsInjected = chaosC.Injected()
	}
	res.DegradedWindows = rep.Degraded
	if res.Any() {
		fmt.Fprintf(os.Stderr, "ermatch: resilience: %s\n", res.String())
	}
	if rep.Degraded > 0 && *runID != "" {
		fmt.Fprintf(os.Stderr, "ermatch: %d windows hold degraded placeholder answers; once the backend recovers, re-run with -run-id %s -resume to repair them without re-billing the rest\n",
			rep.Degraded, *runID)
	}
	fmt.Fprintf(os.Stderr, "ermatch: %d of %d candidates matched\n", matches, rep.Candidates)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ermatch: %v\n", err)
	os.Exit(1)
}
