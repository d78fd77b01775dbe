package core

import (
	"math/rand"
	"sort"
	"testing"

	"batcher/internal/feature"
)

// clusteredVecs builds nc tight clusters of size each in 1D.
func clusteredVecs(nc, size int) []feature.Vector {
	var out []feature.Vector
	for c := 0; c < nc; c++ {
		for i := 0; i < size; i++ {
			out = append(out, feature.Vector{float64(c)*10 + float64(i)*0.01})
		}
	}
	return out
}

func checkIsPartition(t *testing.T, bs Batches, n int) {
	t.Helper()
	if err := checkPartition(bs, n); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBatchesPartition(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	bs := randomBatches(25, 8, rnd)
	checkIsPartition(t, bs, 25)
	if len(bs) != 4 {
		t.Errorf("25 questions / batch 8 = %d batches, want 4", len(bs))
	}
	for i, b := range bs[:3] {
		if len(b) != 8 {
			t.Errorf("batch %d size = %d", i, len(b))
		}
	}
	if len(bs[3]) != 1 {
		t.Errorf("tail batch size = %d, want 1", len(bs[3]))
	}
}

func TestSimilarityBatchesFromSameCluster(t *testing.T) {
	// 3 clusters of 8: every similarity batch must stay within a cluster.
	vecs := clusteredVecs(3, 8)
	cfg := Config{BatchSize: 8, Batching: SimilarityBatching, Seed: 1}.applyDefaults()
	bs := makeBatches(cfg, len(vecs), windowGeometry(cfg, vecs, false))
	checkIsPartition(t, bs, len(vecs))
	for _, b := range bs {
		cluster := b[0] / 8
		for _, qi := range b {
			if qi/8 != cluster {
				t.Fatalf("similarity batch %v spans clusters", b)
			}
		}
	}
}

func TestSimilarityBatchesPaperExample(t *testing.T) {
	// Example 4: clusters of sizes 2, 3, 4 with b=3: batches must
	// partition all 9 questions into 3 batches of 3.
	groups := [][]int{{0, 1}, {2, 3, 4}, {5, 6, 7, 8}}
	rnd := rand.New(rand.NewSource(1))
	bs := similarityBatches(groups, 3, rnd)
	checkIsPartition(t, bs, 9)
	if len(bs) != 3 {
		t.Fatalf("batches = %v, want 3 of size 3", bs)
	}
	for _, b := range bs {
		if len(b) != 3 {
			t.Errorf("batch %v size != 3", b)
		}
	}
}

func TestSimilarityRemainderExactPartner(t *testing.T) {
	// Remainders of sizes 2 and 1 with b=3 should merge into one batch.
	groups := [][]int{{0, 1}, {2}}
	rnd := rand.New(rand.NewSource(1))
	bs := similarityBatches(groups, 3, rnd)
	checkIsPartition(t, bs, 3)
	if len(bs) != 1 || len(bs[0]) != 3 {
		t.Errorf("batches = %v, want single merged batch", bs)
	}
}

func TestDiversityBatchesSpanClusters(t *testing.T) {
	vecs := clusteredVecs(8, 3) // 8 clusters of 3, b=8
	cfg := Config{BatchSize: 8, Batching: DiversityBatching, Seed: 1}.applyDefaults()
	bs := makeBatches(cfg, len(vecs), windowGeometry(cfg, vecs, false))
	checkIsPartition(t, bs, len(vecs))
	// First batches must contain one question from each cluster.
	first := bs[0]
	seen := map[int]bool{}
	for _, qi := range first {
		c := qi / 3
		if seen[c] {
			t.Fatalf("diversity batch %v has two questions from cluster %d", first, c)
		}
		seen[c] = true
	}
}

func TestDiversityBatchesPaperExample(t *testing.T) {
	// Example 4 diversity case: clusters {qa1,qa2}, {qb1..qb3},
	// {qc1..qc4}, b=3 -> three batches, first two spanning all clusters.
	groups := [][]int{{0, 1}, {2, 3, 4}, {5, 6, 7, 8}}
	bs := diversityBatches(groups, 3)
	checkIsPartition(t, bs, 9)
	if len(bs) != 3 {
		t.Fatalf("batches = %v", bs)
	}
	clusterOf := func(q int) int {
		switch {
		case q < 2:
			return 0
		case q < 5:
			return 1
		default:
			return 2
		}
	}
	for _, b := range bs[:2] {
		seen := map[int]bool{}
		for _, q := range b {
			c := clusterOf(q)
			if seen[c] {
				t.Errorf("early diversity batch %v repeats cluster %d", b, c)
			}
			seen[c] = true
		}
	}
}

func TestDiversityTailRoundRobin(t *testing.T) {
	// One big cluster and one small: tail batches still form.
	groups := [][]int{{0, 1, 2, 3, 4, 5}, {6}}
	bs := diversityBatches(groups, 4)
	checkIsPartition(t, bs, 7)
}

func TestMakeBatchesBatchSizeOne(t *testing.T) {
	vecs := clusteredVecs(2, 3)
	cfg := Config{BatchSize: 1, Batching: DiversityBatching, Seed: 1}.applyDefaults()
	// applyDefaults would reset BatchSize<=0 but 1 is legal.
	cfg.BatchSize = 1
	bs := makeBatches(cfg, len(vecs), windowGeometry(cfg, vecs, false))
	checkIsPartition(t, bs, 6)
	if len(bs) != 6 {
		t.Errorf("standard prompting should yield one batch per question: %d", len(bs))
	}
}

func TestMakeBatchesEmpty(t *testing.T) {
	cfg := Config{}.applyDefaults()
	if bs := makeBatches(cfg, 0, geometry{}); bs != nil {
		t.Errorf("empty input produced batches: %v", bs)
	}
}

func TestMakeBatchesIdenticalVectors(t *testing.T) {
	vecs := make([]feature.Vector, 10)
	for i := range vecs {
		vecs[i] = feature.Vector{0.5}
	}
	for _, strat := range BatchStrategies() {
		cfg := Config{BatchSize: 4, Batching: strat, Seed: 1}.applyDefaults()
		bs := makeBatches(cfg, len(vecs), windowGeometry(cfg, vecs, false))
		checkIsPartition(t, bs, 10)
	}
}

func TestBatchesFlatten(t *testing.T) {
	bs := Batches{{2, 0}, {1}}
	got := bs.Flatten()
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Errorf("Flatten = %v", got)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if RandomBatching.String() != "random" || DiversityBatching.String() != "diversity" {
		t.Error("BatchStrategy.String broken")
	}
	if FixedSelection.String() != "fixed" || CoveringSelection.String() != "cover" {
		t.Error("SelectStrategy.String broken")
	}
	if BatchStrategy(99).String() == "" || SelectStrategy(99).String() == "" {
		t.Error("unknown strategies should still print")
	}
}

func TestCheckPartitionErrors(t *testing.T) {
	if err := checkPartition(Batches{{0, 0}}, 2); err == nil {
		t.Error("duplicate question not detected")
	}
	if err := checkPartition(Batches{{0}}, 2); err == nil {
		t.Error("missing question not detected")
	}
	if err := checkPartition(Batches{{5}}, 2); err == nil {
		t.Error("out-of-range question not detected")
	}
}
