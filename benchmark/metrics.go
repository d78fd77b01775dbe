package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the
// same names with their directions and bounds; the smoke test keeps the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, the same nine on
// every workload, always from the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"pairs_per_s", "pairs/s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_pair", "count"},
	{"usd_per_1k_pairs", "USD"},
	{"f1", "%"},
	{"resolved_share", "ratio"},
}

// perLayer are the per-layer metrics of the traced pass, in pipeline
// order. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"entity.csv_read_ms", "ms"},
	{"entity.csv_rows_per_s", "1/s"},
	{"blocking.stream_ms", "ms"},
	{"blocking.pairs", "count"},
	{"blocking.allocs_per_pair", "count"},
	{"profile.warm_ms", "ms"},
	{"feature.extract_ms", "ms"},
	{"feature.extract_us_per_pair", "us"},
	{"cluster.eps_percentile_ms", "ms"},
	{"cluster.dbscan_ms", "ms"},
	{"cluster.clusters_per_window", "count"},
	{"setcover.greedy_ms", "ms"},
	{"setcover.demos_selected", "count"},
	{"core.prepare_ms", "ms"},
	{"core.prepare_self_ms", "ms"},
	{"core.exec_ms", "ms"},
	{"core.batches", "count"},
	{"core.labeled_pairs", "count"},
	{"core.prompt_tokens_per_pair", "count"},
	{"prompt.build_us_per_call", "us"},
	{"prompt.parse_us_per_call", "us"},
	{"tokens.count_us_per_call", "us"},
	{"tokens.count_mb_per_s", "MB/s"},
	{"llm.calls", "count"},
	{"llm.input_tokens", "count"},
	{"llm.output_tokens", "count"},
	{"llm.stub_misses", "count"},
	{"llm.wait_ms", "ms"},
	{"llm.inflight_max", "count"},
	{"llm.idle_ms", "ms"},
	{"llm.cachekey_us_per_call", "us"},
	{"cost.api_usd", "USD"},
	{"cost.label_usd", "USD"},
	{"runstore.append_us_per_record", "us"},
	{"runstore.journal_bytes_per_pair", "B"},
	{"runstore.open_ms", "ms"},
	{"runstore.cache_put_us_per_call", "us"},
	{"runstore.cache_hit_us_per_call", "us"},
	{"pipeline.windows", "count"},
	{"pipeline.peak_buffered", "count"},
	{"pipeline.first_row_ms", "ms"},
	{"pipeline.window_commit_p50_ms", "ms"},
	{"pipeline.window_commit_p90_ms", "ms"},
	{"pipeline.overlap_efficiency", "ratio"},
	{"pipeline.overhead_ms", "ms"},
	{"pipeline.replay_ms", "ms"},
	{"shard.merge_ms", "ms"},
	{"shard.skew", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// printMetrics writes one line per metric: workload, name, unit, value.
func printMetrics(out io.Writer, workload string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-16s %-34s %-8s %.6g\n", workload, d.name, d.unit, values[d.name])
	}
}

// resultLine renders the one JSON object the benchmark contract wants
// as the last line of standard output.
func resultLine(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
