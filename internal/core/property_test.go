package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"batcher/internal/feature"
)

// TestBatchingPartitionProperty: for any random question geometry, batch
// size, and strategy, the produced batches are an exact partition of the
// question set — the S Bi = M invariant of Section II-C.
func TestBatchingPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw, bRaw uint8, strat uint8) bool {
		n := int(nRaw)%120 + 1
		b := int(bRaw)%12 + 1
		rnd := rand.New(rand.NewSource(seed))
		vecs := make([]feature.Vector, n)
		for i := range vecs {
			// Mixture of tight clusters and scattered points.
			if rnd.Intn(2) == 0 {
				c := float64(rnd.Intn(4)) * 5
				vecs[i] = feature.Vector{c + rnd.Float64()*0.1}
			} else {
				vecs[i] = feature.Vector{rnd.Float64() * 100}
			}
		}
		cfg := Config{
			BatchSize: b,
			Batching:  BatchStrategies()[int(strat)%3],
			Seed:      seed,
		}.applyDefaults()
		cfg.BatchSize = b
		batches := makeBatches(cfg, len(vecs), windowGeometry(cfg, vecs, nil, false))
		return checkPartition(batches, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestBatchSizeBoundProperty: no batch ever exceeds the configured size.
func TestBatchSizeBoundProperty(t *testing.T) {
	f := func(seed int64, nRaw, bRaw uint8, strat uint8) bool {
		n := int(nRaw)%100 + 1
		b := int(bRaw)%10 + 1
		rnd := rand.New(rand.NewSource(seed))
		vecs := make([]feature.Vector, n)
		for i := range vecs {
			vecs[i] = feature.Vector{rnd.Float64() * 10}
		}
		cfg := Config{BatchSize: b, Batching: BatchStrategies()[int(strat)%3], Seed: seed}.applyDefaults()
		cfg.BatchSize = b
		for _, batch := range makeBatches(cfg, len(vecs), windowGeometry(cfg, vecs, nil, false)) {
			if len(batch) > b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSelectionLabeledSupersetProperty: for every strategy, each batch's
// demonstrations come from the globally annotated set (nothing is used
// without being paid for), and annotations are unique pool indices.
func TestSelectionLabeledSupersetProperty(t *testing.T) {
	f := func(seed int64, nqRaw, ndRaw, stratRaw uint8) bool {
		nq := int(nqRaw)%40 + 2
		nd := int(ndRaw)%60 + 2
		strat := SelectStrategies()[int(stratRaw)%4]
		rnd := rand.New(rand.NewSource(seed))
		qVecs := make([]feature.Vector, nq)
		for i := range qVecs {
			qVecs[i] = feature.Vector{rnd.Float64()}
		}
		dVecs := make([]feature.Vector, nd)
		for i := range dVecs {
			dVecs[i] = feature.Vector{rnd.Float64()}
		}
		pool := dummyPool(nd)
		cfg := Config{Selection: strat, Seed: seed}.applyDefaults()
		batches := randomBatches(nq, 8, rnd)
		sel := selectDemos(cfg, batches, qVecs, dVecs, pool, windowGeometry(cfg, qVecs, dVecs, false))
		labeled := map[int]bool{}
		for i, di := range sel.labeled {
			if di < 0 || di >= nd {
				return false
			}
			if labeled[di] {
				return false // duplicate annotation billed twice
			}
			labeled[di] = true
			if i > 0 && sel.labeled[i-1] >= di {
				return false // must be sorted ascending
			}
		}
		for _, ids := range sel.perBatch {
			for _, di := range ids {
				if !labeled[di] {
					return false // used without annotation
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestCoveringWithinThresholdProperty: every question that *can* be
// covered at threshold t has a demonstration within t in its batch's
// allocation.
func TestCoveringWithinThresholdProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nq, nd := 24, 40
		qVecs := make([]feature.Vector, nq)
		for i := range qVecs {
			qVecs[i] = feature.Vector{rnd.Float64() * 4}
		}
		dVecs := make([]feature.Vector, nd)
		for i := range dVecs {
			dVecs[i] = feature.Vector{rnd.Float64() * 4}
		}
		pool := dummyPool(nd)
		cfg := Config{Selection: CoveringSelection, Seed: seed}.applyDefaults()
		cfg.CoverPercentile = 0.3
		batches := randomBatches(nq, 8, rnd)
		tval := coverThreshold(cfg, qVecs)
		sel := coveringSelection(batches, pool, windowGeometry(cfg, qVecs, dVecs, false))
		for bi, batch := range batches {
			for _, qi := range batch {
				coverable := false
				for _, dv := range dVecs {
					if feature.Euclidean(qVecs[qi], dv) < tval {
						coverable = true
						break
					}
				}
				if !coverable {
					continue
				}
				covered := false
				for _, di := range sel.perBatch[bi] {
					if feature.Euclidean(qVecs[qi], dVecs[di]) < tval {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
