package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// BenchMeta is the environment header every BENCH_*.json file carries,
// mirroring the fields `go test -bench` prints: platform, CPU model,
// and the date the numbers were recorded.
type BenchMeta struct {
	// Description says what was measured and how to reproduce it.
	Description string `json:"description"`
	// Goos and Goarch are the build platform.
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	// CPU is the host CPU model with its usable core count.
	CPU string `json:"cpu"`
	// Date is the recording date (YYYY-MM-DD, UTC).
	Date string `json:"date"`
}

// NewBenchMeta fills the environment fields for this host so bench
// files are generated, not hand-assembled.
func NewBenchMeta(description string) BenchMeta {
	return BenchMeta{
		Description: description,
		Goos:        runtime.GOOS,
		Goarch:      runtime.GOARCH,
		CPU:         fmt.Sprintf("%s (%d vCPU)", cpuModel(), runtime.GOMAXPROCS(0)),
		Date:        time.Now().UTC().Format("2006-01-02"),
	}
}

// cpuModel reads the host CPU model name, falling back to the
// architecture when the platform does not expose /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// BenchFile is a complete BENCH_*.json document: the environment
// header plus named results, each sweep in its own per-cell record
// shape (see CascadeBenchFile).
type BenchFile struct {
	BenchMeta
	Results map[string]any `json:"results"`
}

// WriteBenchJSON renders a bench file as indented JSON. Map keys are
// emitted sorted, so regenerated files diff cleanly.
func WriteBenchJSON(w io.Writer, f BenchFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
