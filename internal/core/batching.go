package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
)

// Batches is a list of question batches, each a list of indices into the
// question set.
type Batches [][]int

// makeBatches groups the n question indices into batches of size b
// following the configured strategy (Section III-A); the clustering
// strategies read the questions' clusters off geo. The union of batches
// is always exactly the question set.
func makeBatches(cfg Config, n int, geo geometry) Batches {
	if n == 0 {
		return nil
	}
	b := cfg.BatchSize
	rnd := rand.New(rand.NewSource(cfg.Seed))
	if !cfg.clustersQuestions() {
		return randomBatches(n, b, rnd)
	}
	groups := geo.clusters(n, cfg.ClusterMinPts)
	if cfg.Batching == SimilarityBatching {
		return similarityBatches(groups, b, rnd)
	}
	return diversityBatches(groups, b)
}

// randomBatches shuffles indices and chunks them.
func randomBatches(n, b int, rnd *rand.Rand) Batches {
	idx := rnd.Perm(n)
	var out Batches
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		out = append(out, append([]int(nil), idx[start:end]...))
	}
	return out
}

// similarityBatches implements the paper's similarity-based strategy:
// batches drawn from within single clusters, with the remainder-merging
// rule of Section III-A for undersized tails.
func similarityBatches(groups [][]int, b int, rnd *rand.Rand) Batches {
	var out Batches
	// Stage 1: chunk each cluster into full batches; collect remainders.
	var remainders [][]int
	for _, g := range groups {
		start := 0
		for ; start+b <= len(g); start += b {
			out = append(out, append([]int(nil), g[start:start+b]...))
		}
		if start < len(g) {
			remainders = append(remainders, append([]int(nil), g[start:]...))
		}
	}
	// Stage 2: merge remainders per the paper: take the largest remaining
	// cluster Cmax; prefer a partner of size exactly b-|Cmax|; otherwise
	// take b-|Cmax| random elements from the next largest cluster.
	for len(remainders) > 0 {
		sort.SliceStable(remainders, func(i, j int) bool { return len(remainders[i]) > len(remainders[j]) })
		cmax := remainders[0]
		remainders = remainders[1:]
		need := b - len(cmax)
		if need <= 0 || len(remainders) == 0 {
			out = append(out, cmax)
			continue
		}
		exact := -1
		for i, r := range remainders {
			if len(r) == need {
				exact = i
				break
			}
		}
		if exact >= 0 {
			batch := append(cmax, remainders[exact]...)
			remainders = append(remainders[:exact], remainders[exact+1:]...)
			out = append(out, batch)
			continue
		}
		// Next largest cluster donates `need` random elements.
		donor := remainders[0]
		if len(donor) <= need {
			// Donor too small: absorb it fully and keep going with the
			// merged remainder.
			merged := append(cmax, donor...)
			remainders = remainders[1:]
			remainders = append(remainders, merged)
			continue
		}
		rnd.Shuffle(len(donor), func(i, j int) { donor[i], donor[j] = donor[j], donor[i] })
		batch := append(cmax, donor[:need]...)
		remainders[0] = donor[need:]
		out = append(out, batch)
	}
	return out
}

// diversityBatches implements the paper's diversity-based strategy: each
// batch takes one question from each of b different clusters; when fewer
// than b clusters remain, questions are drawn round-robin. Every batch is
// carved from one slice of all n questions, each capped at its own
// length, and the per-round list of live clusters reuses one buffer.
func diversityBatches(groups [][]int, b int) Batches {
	// Consume from the front of each cluster: a copy of the slice
	// headers, never of the questions.
	clusters := slices.Clone(groups)
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	taken := make([]int, 0, n)
	out := make(Batches, 0, (n+b-1)/b)
	// take moves cluster ci's first question into the batch being built.
	take := func(ci int) {
		taken = append(taken, clusters[ci][0])
		clusters[ci] = clusters[ci][1:]
	}
	// cut ends the batch being built, which began at start.
	cut := func(start int) {
		out = append(out, taken[start:len(taken):len(taken)])
	}
	live := make([]int, 0, len(clusters))
	for {
		// Order live clusters by remaining size, largest first, so the
		// big clusters drain evenly.
		live = appendLive(live[:0], clusters)
		if len(live) == 0 {
			return out
		}
		slices.SortStableFunc(live, func(x, y int) int { return cmp.Compare(len(clusters[y]), len(clusters[x])) })
		start := len(taken)
		if len(live) >= b {
			for _, ci := range live[:b] {
				take(ci)
			}
			cut(start)
			continue
		}
		// Tail stage: round-robin over the remaining clusters.
		for len(taken)-start < b {
			took := false
			for _, ci := range live {
				if len(clusters[ci]) == 0 {
					continue
				}
				take(ci)
				took = true
				if len(taken)-start == b {
					break
				}
			}
			if !took {
				break
			}
		}
		if len(taken) > start {
			cut(start)
		}
	}
}

// appendLive appends the indices of non-empty clusters to dst.
func appendLive(dst []int, clusters [][]int) []int {
	for i, c := range clusters {
		if len(c) > 0 {
			dst = append(dst, i)
		}
	}
	return dst
}
