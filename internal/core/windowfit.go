package core

import (
	"fmt"
	"math"
	"runtime/debug"

	"batcher/internal/bitrel"
	"batcher/internal/cluster"
	"batcher/internal/feature"
)

// WindowTooLargeError is Prepare's refusal of a window whose threshold
// relations would not fit in memory. The relations take Words(n) words
// per stored row: one row per distinct feature vector for each relation
// the sweep builds over the questions, and one per pool entry for the
// cover relation of a separate pool. Prepare projects that from the
// window's size and its distinct vectors and refuses before the sweep
// allocates anything or measures a distance.
type WindowTooLargeError struct {
	// Candidates is the window's size and Distinct its number of
	// distinct feature vectors.
	Candidates, Distinct int
	// Bytes is the relations' projected size and Limit the bound it
	// passed: half the Go memory limit when one is set, otherwise
	// windowMemoryCeiling.
	Bytes, Limit int64
	// Fits is the largest window whose relations fit under Limit even
	// when every vector in it is distinct; 0 when none does.
	Fits int
}

// Error names the projection, the bound and the window that fits.
func (e *WindowTooLargeError) Error() string {
	fits := "no window fits"
	if e.Fits > 0 {
		fits = fmt.Sprintf("a window (-stream-window) of at most %d candidates fits", e.Fits)
	}
	return fmt.Sprintf("core: a window of %d candidates (%d distinct feature vectors) needs %s for its relations, over the %s bound; %s",
		e.Candidates, e.Distinct, byteSize(e.Bytes), byteSize(e.Limit), fits)
}

// byteSize renders b bytes in decimal units.
func byteSize(b int64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.1f GB", float64(b)/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1f MB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f kB", float64(b)/1e3)
	}
	return fmt.Sprintf("%d B", b)
}

// windowMemoryCeiling bounds a window's relations when no Go memory
// limit is set (debug.SetMemoryLimit, GOMEMLIMIT): 2 GiB holds both
// relations of a window of about 92 000 all-distinct candidates.
const windowMemoryCeiling = 2 << 30

// windowMemoryBound is the most a window's relations may take: half the
// Go memory limit when one is set, leaving the other half to the tables,
// vectors and everything else, and windowMemoryCeiling otherwise.
func windowMemoryBound() int64 {
	if limit := debug.SetMemoryLimit(-1); limit < math.MaxInt64 {
		return limit / 2
	}
	return windowMemoryCeiling
}

// relationBytes projects the bytes of the threshold relations
// windowGeometry builds for n questions with u distinct vectors and a
// pool of poolRows entries (0 when the pool is the question set).
func (c Config) relationBytes(n, u, poolRows int) int64 {
	rows := 0
	if c.clustersQuestions() {
		rows += u
	}
	if c.Selection == CoveringSelection {
		if poolRows > 0 {
			rows += poolRows
		} else {
			rows += u
		}
	}
	return 8 * int64(rows) * int64(bitrel.Words(n))
}

// checkWindowFits returns a *WindowTooLargeError when the relations of
// the window qVecs (with pool dVecs, the same slice when selfPooled)
// would pass windowMemoryBound. It counts the distinct vectors only when
// the window could not fit if every vector were distinct, so a window
// that fits in any case pays nothing.
func checkWindowFits(cfg Config, qVecs, dVecs []feature.Vector, selfPooled bool) error {
	n, poolRows := len(qVecs), len(dVecs)
	if selfPooled {
		poolRows = 0
	}
	bound := windowMemoryBound()
	if cfg.relationBytes(n, n, poolRows) <= bound {
		return nil
	}
	u := cluster.Distinct(qVecs)
	need := cfg.relationBytes(n, u, poolRows)
	if need <= bound {
		return nil
	}
	// The largest all-distinct window that fits; relationBytes grows
	// with the window.
	lo, hi := 0, n
	for lo < hi {
		w := (lo + hi + 1) / 2
		if cfg.relationBytes(w, w, poolRows) <= bound {
			lo = w
		} else {
			hi = w - 1
		}
	}
	return &WindowTooLargeError{Candidates: n, Distinct: u, Bytes: need, Limit: bound, Fits: lo}
}
