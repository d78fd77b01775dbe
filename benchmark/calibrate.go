package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is a small VM whose speed moves with
// its neighbours: over minutes the same iteration takes 1.2x to 1.5x
// longer and then recovers, more on memory-bound code than on compute
// (README, "Host speed"). Two sets of runs half an hour apart then
// disagree by more than any bound a regression gate could use. So every
// run also times a fixed loop of the operation kinds the workloads spend
// their time in — sorting floats, a string-keyed map, small JSON records
// — and reports its CPU-bound times scaled to the speed the loop had
// when the baseline was recorded. The loop is stdlib only: no change to
// the program under test can move it.

// referenceCalibration is the loop's time on the baseline host in a
// quiet spell; a run whose loop takes twice as long has its CPU-bound
// times halved.
const referenceCalibration = 22500 * time.Microsecond

// calibrationGap is the least time between two calibrations of one
// measuring process: the host's speed moves over seconds, not
// milliseconds, and short iterations should not spend their run here.
const calibrationGap = time.Second

type calRecord struct {
	Window, Batch int
	Keys          []string
	Pred          []int
}

// calibrate times one pass of the fixed loop. Its inputs are rebuilt
// every time and dropped after, so calibrating leaves nothing resident
// in the process whose memory is being measured.
func calibrate() time.Duration {
	floats := make([]float64, 130000)
	s := uint64(12345)
	for i := range floats {
		s = s*6364136223846793005 + 1442695040888963407
		floats[i] = float64(s>>11) / (1 << 53)
	}
	keys := make([]string, 50000)
	for i := range keys {
		keys[i] = "pipebench-a" + strconv.Itoa(i*7919%100000)
	}
	t0 := time.Now()
	sort.Float64s(floats)
	m := make(map[string]int, 1024)
	for i, k := range keys {
		m[k] += i
	}
	sum := 0
	for _, k := range keys {
		sum += m[k]
	}
	for i := 0; i < 300; i++ {
		rec := calRecord{Window: i, Batch: sum & 7, Keys: keys[i*8 : i*8+8], Pred: []int{1, 0, 0, 1, 0, 0, 0, 1}}
		data, err := json.Marshal(rec)
		if err == nil {
			err = json.Unmarshal(data, &rec)
		}
		if err != nil {
			panic(err) // a struct of ints and strings always round-trips
		}
	}
	return time.Since(t0)
}

// calibrateN takes n samples, in seconds.
func calibrateN(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = calibrate().Seconds()
	}
	return out
}

// speedFactor is what a CPU-bound time measured alongside the samples
// is multiplied by to read at the reference speed.
func speedFactor(samples []float64) float64 {
	if m := median(samples); m > 0 {
		return referenceCalibration.Seconds() / m
	}
	return 1
}
