package core

import (
	"math/rand"
	"sort"
)

// Batches is a list of question batches, each a list of indices into the
// question set.
type Batches [][]int

// Flatten returns all question indices in batch order.
func (bs Batches) Flatten() []int {
	var out []int
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

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
// than b clusters remain, questions are drawn round-robin.
func diversityBatches(groups [][]int, b int) Batches {
	// Work on copies; consume from the front of each cluster.
	clusters := make([][]int, len(groups))
	for i, g := range groups {
		clusters[i] = append([]int(nil), g...)
	}
	var out Batches
	for {
		// Order live clusters by remaining size, largest first, so the
		// big clusters drain evenly.
		live := live(clusters)
		if len(live) == 0 {
			return out
		}
		sort.SliceStable(live, func(i, j int) bool { return len(clusters[live[i]]) > len(clusters[live[j]]) })
		if len(live) >= b {
			batch := make([]int, 0, b)
			for _, ci := range live[:b] {
				batch = append(batch, clusters[ci][0])
				clusters[ci] = clusters[ci][1:]
			}
			out = append(out, batch)
			continue
		}
		// Tail stage: round-robin over the remaining clusters.
		batch := make([]int, 0, b)
		for len(batch) < b {
			took := false
			for _, ci := range live {
				if len(clusters[ci]) == 0 {
					continue
				}
				batch = append(batch, clusters[ci][0])
				clusters[ci] = clusters[ci][1:]
				took = true
				if len(batch) == b {
					break
				}
			}
			if !took {
				break
			}
		}
		if len(batch) > 0 {
			out = append(out, batch)
		}
	}
}

// live returns indices of non-empty clusters.
func live(clusters [][]int) []int {
	var out []int
	for i, c := range clusters {
		if len(c) > 0 {
			out = append(out, i)
		}
	}
	return out
}
