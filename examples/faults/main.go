// Faults: the resilience middleware end to end, fully offline. The
// example runs the same workload three ways over one journal and one
// response cache:
//
//  1. a clean baseline run against the offline simulator;
//  2. a "fault storm" run with the deterministic chaos harness injecting
//     throttles, overloads, and torn responses in front of the same
//     simulator — a seeded retry layer absorbs every fault and the final
//     ledger is identical to the baseline's, to the cent;
//  3. a total-outage run (every request faulted) where a circuit breaker
//     opens and the DegradeUnknown policy finishes the run with
//     journaled Unknown placeholders instead of crashing — followed by a
//     resume with a healthy client that repairs exactly the degraded
//     windows, arriving back at the baseline ledger with nothing billed
//     twice.
//
// Every client is built by NewClientStack, which owns the layer order —
// chaos, then breaker, then retrying, with the disk cache outermost, so
// cached answers never consume retry budget or trip the breaker — and
// reads every layer's counters back through one Stats snapshot.
//
// Run with:
//
//	go run ./examples/faults
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"batcher/batcher"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "batcher-faults")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ds, err := batcher.LoadBenchmark("Beer", 1)
	if err != nil {
		log.Fatal(err)
	}
	split := batcher.SplitPairs(ds.Pairs)
	sim := batcher.NewSimulatedClient(ds.Pairs, 1)

	run := func(name string, client batcher.Client, journal *batcher.RunJournal) *batcher.PipelineReport {
		rep, err := batcher.RunPipeline(ctx, batcher.PipelineConfig{
			BlockAttr:    "beer_name",
			Pool:         split.Train,
			StreamWindow: 32,
			Journal:      journal,
			Matcher:      []batcher.Option{batcher.WithSeed(1), batcher.WithDegrade(batcher.DegradeUnknown)},
		}, client, ds.TableA, ds.TableB)
		if err != nil {
			fmt.Printf("%s: stopped early (%v)\n", name, err)
		}
		if rep != nil {
			fmt.Printf("%s: %s\n", name, rep.Result.Ledger.String())
		}
		return rep
	}

	// Part 1: clean baseline, no middleware, no journal.
	fmt.Println("--- baseline: no faults ---")
	base := run("baseline", sim, nil)

	// Part 2: a fault storm. Chaos deterministically injects transient
	// faults in front of the simulator; a seeded retry layer absorbs all
	// of them. Injected faults never reach the backend and never bill, so
	// the ledger matches the baseline exactly.
	fmt.Println("--- fault storm: chaos absorbed by retries ---")
	storm, err := batcher.NewClientStack(ctx, sim, batcher.StackConfig{
		Chaos:     batcher.FaultProfile{Throttle: 0.25, Overload: 0.25, Transport: 0.2, Torn: 0.15, MaxFaults: 2},
		ChaosSeed: 42,
		Retries:   5,
		RetrySeed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	stormRep := run("storm", storm, nil)
	st := storm.Stats()
	fmt.Printf("storm: %d faults injected, %d retries; ledger identical to baseline: %v\n",
		st.FaultsInjected, st.Retries,
		base.Result.Ledger.String() == stormRep.Result.Ledger.String())

	// Part 3a: a total outage. Every request is faulted, the breaker
	// opens after 2 consecutive failures, and once the retry budget is
	// spent each batch is refused with ErrCircuitOpen. DegradeUnknown
	// turns each refusal into a journaled Unknown placeholder, so the run
	// completes — degraded, billed $0 — instead of dying.
	fmt.Println("--- outage: breaker opens, run degrades ---")
	runDir := filepath.Join(dir, "runs")
	cacheDir := filepath.Join(dir, "cache")
	outage, err := batcher.NewClientStack(ctx, sim, batcher.StackConfig{
		Chaos:           batcher.FaultProfile{Overload: 1, MaxFaults: 1 << 30},
		ChaosSeed:       7,
		BreakerFails:    2,
		BreakerCooldown: time.Hour,
		Retries:         3,
		RetrySeed:       7,
		CacheDir:        cacheDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	journal, err := batcher.OpenRunJournal(ctx, runDir, "beer-faults", false)
	if err != nil {
		log.Fatal(err)
	}
	degRep := run("outage", outage, journal)
	res := outage.Stats()
	res.DegradedWindows = degRep.Degraded
	fmt.Printf("outage: resilience: %s\n", res.String())
	outage.Close()
	journal.Close()

	// Part 3b: the backend recovers; resuming the same journal repairs
	// exactly the degraded windows. The placeholders never satisfied
	// their windows, so the resume re-resolves them — and arrives at the
	// baseline's ledger, with nothing paid twice.
	fmt.Println("--- repair: resume once the backend recovers ---")
	healthy, err := batcher.NewClientStack(ctx, sim, batcher.StackConfig{CacheDir: cacheDir})
	if err != nil {
		log.Fatal(err)
	}
	defer healthy.Close()
	journal2, err := batcher.OpenRunJournal(ctx, runDir, "beer-faults", true)
	if err != nil {
		log.Fatal(err)
	}
	defer journal2.Close()
	repaired := run("repair", healthy, journal2)
	fmt.Printf("repair: %d degraded windows left; ledger identical to baseline: %v\n",
		repaired.Degraded,
		base.Result.Ledger.String() == repaired.Result.Ledger.String())
}
