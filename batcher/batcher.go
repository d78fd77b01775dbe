// Package batcher is the public API of BatchER-Go, a cost-effective
// batch-prompting framework for entity resolution reproducing "Cost-
// Effective In-Context Learning for Entity Resolution: A Design Space
// Exploration" (ICDE 2024).
//
// A Matcher groups candidate entity pairs ("questions") into batches,
// selects in-context demonstrations from an unlabeled pool, prompts an
// LLM once per batch, and returns per-pair match predictions along with a
// full monetary cost ledger (API tokens + demonstration labeling).
//
// Quickstart:
//
//	client := batcher.NewSimulatedClient(labeledPairs, 1)
//	m := batcher.New(client,
//		batcher.WithBatching(batcher.DiversityBatching),
//		batcher.WithSelection(batcher.CoveringSelection))
//	res, err := m.Match(ctx, questions, pool)
//
// For incremental consumption, MatchStream yields each batch's
// predictions and cost delta as it completes:
//
//	stream, err := m.MatchStream(ctx, questions, pool)
//	for br := range stream.All() {
//		fmt.Println(br.Index, br.Pred, br.Ledger.API())
//	}
//	err = stream.Err()
//
// Plan prices a run before it spends: it is Match against a client that
// calls no model, and its ledger is the run's labels, calls and input
// tokens.
//
// Pipeline runs can be made durable: OpenRunJournal records every
// answered batch on disk so an interrupted run resumes from the first
// unanswered window. NewClientStack builds the transport around a base
// client — chaos, per-tier circuit breakers, retries, hedging and a
// persistent response cache, in the one order they depend on — and
// reads all their counters back through one Stats snapshot, so re-runs
// and overlapping experiments never pay for the same answer twice. See
// docs/ARCHITECTURE.md and the README's operations cookbook.
//
// Raw tables load through OpenCSVTable, row by row, or ReadCSVTable,
// which collects them. BlockTables, BlockTablesStream and RunPipeline
// block with the same token-overlap blocker and the same defaults; no
// entry point takes a custom blocker.
//
// The package re-exports the domain types a caller needs (Record, Pair,
// Dataset, strategies), so downstream users never import internal
// packages.
package batcher

import (
	"context"
	"iter"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/metrics"
)

// Re-exported domain types. Aliases keep the public surface in one import
// while the implementation lives in internal packages.
type (
	// Record is a tuple with named attributes.
	Record = entity.Record
	// Pair is a candidate entity pair, optionally labeled.
	Pair = entity.Pair
	// Label is a matching verdict.
	Label = entity.Label
	// Dataset is a two-table benchmark with labeled candidate pairs.
	Dataset = entity.Dataset
	// Split is a train/valid/test partition.
	Split = entity.Split
	// Result is the outcome of a Match call.
	Result = core.Result
	// Stream is a MatchStream resolution, run by ranging its All.
	Stream = core.Stream
	// BatchResult is one completed batch yielded by a Stream.
	BatchResult = core.BatchResult
	// BatchError is the typed mid-run failure: the first batch that did
	// not complete plus the underlying cause (possibly ctx.Err()).
	BatchError = core.BatchError
	// Config is the full framework configuration.
	Config = core.Config
	// BatchStrategy selects the question batching method.
	BatchStrategy = core.BatchStrategy
	// SelectStrategy selects the demonstration selection method.
	SelectStrategy = core.SelectStrategy
	// Client is the LLM client abstraction.
	Client = llm.Client
	// Request is one completion request a Client answers; custom Client
	// implementations and middleware consume it.
	Request = llm.Request
	// Response is a completion plus billed token usage.
	Response = llm.Response
	// Confusion scores predictions against gold labels.
	Confusion = metrics.Confusion
)

// Label values.
const (
	Match    = entity.Match
	NonMatch = entity.NonMatch
	Unknown  = entity.Unknown
)

// Question batching strategies (paper Section III).
const (
	RandomBatching     = core.RandomBatching
	SimilarityBatching = core.SimilarityBatching
	DiversityBatching  = core.DiversityBatching
)

// Demonstration selection strategies (paper Sections IV-V).
const (
	FixedSelection    = core.FixedSelection
	TopKBatch         = core.TopKBatch
	TopKQuestion      = core.TopKQuestion
	CoveringSelection = core.CoveringSelection
)

// Model names for WithModel.
const (
	GPT35Turbo0301 = llm.GPT35Turbo0301
	GPT35Turbo0613 = llm.GPT35Turbo0613
	GPT4           = llm.GPT4
	Llama2Chat70B  = llm.Llama2Chat70B
)

// ErrUnknownModel is returned for a WithModel or WithCheapModel name
// missing from the model registry; RunPipeline returns it before it
// stamps a journal or blocks.
var ErrUnknownModel = llm.ErrUnknownModel

// CheckModel looks name up in the model registry and returns an error
// matching ErrUnknownModel, naming it, when it is missing. A command
// line calls it on its model flags before any I/O.
func CheckModel(name string) error {
	_, err := llm.Lookup(name)
	return err
}

// SplitPairs partitions labeled pairs 3:1:1 (train/valid/test),
// stratified by class, as in the paper's experimental setup.
func SplitPairs(pairs []Pair) Split { return entity.SplitPairs(pairs) }

// Matcher is a configured BATCHER instance.
type Matcher struct {
	fw *core.Framework
}

// New builds a Matcher over an LLM client with the paper's defaults
// (batch size 8, diversity batching, covering selection, LR features,
// GPT-3.5-turbo-0301, temperature 0.01).
func New(client Client, opts ...Option) *Matcher {
	return &Matcher{fw: core.NewFromConfig(client, resolve(opts))}
}

// NewWithConfig builds a Matcher from an explicit Config.
func NewWithConfig(client Client, cfg Config) *Matcher {
	return &Matcher{fw: core.NewFromConfig(client, cfg)}
}

// Config returns the effective configuration.
func (m *Matcher) Config() Config { return m.fw.Config() }

// Match resolves every question pair using batch prompting, drawing
// demonstrations from pool. Pool pairs may carry gold labels; the Matcher
// reads one only when it annotates that pair, and bills each annotation.
//
// Cancelling ctx stops the run between batch calls; Match then returns
// the partial Result accumulated so far together with a *BatchError
// wrapping ctx's error. Failures before the first batch starts (setup
// errors, a pre-cancelled ctx) return a nil Result and a bare error, so
// check the Result for nil before reading partial predictions.
func (m *Matcher) Match(ctx context.Context, questions, pool []Pair) (*Result, error) {
	return m.fw.Resolve(ctx, questions, pool)
}

// Plan prices resolving questions over pool under m's configuration
// without calling a model: it runs Match's engine against a client that
// bills each prompt at its token count and answers nothing, so batching,
// demonstration selection, annotation and every trim or split follow
// the run's own rules. The returned Result's Ledger is the price and
// TrimmedDemos the demonstrations dropped to fit a context window; its
// predictions are all Unknown. Plan never touches m's client.
//
// On a single-tier run, labels, calls and input tokens equal the run's.
// For a live model they are exact only as far as the token meter
// matches the model's tokenizer. Output tokens are zero: no completion
// cap is sent, so how long an answer runs cannot be known, and Plan
// does not guess. On a tiered run (WithCheapModel), calls and input
// tokens are an upper bound: an empty cheap-tier answer reads as
// Unknown, so every batch the cheap tier answers is counted as
// escalating.
func (m *Matcher) Plan(ctx context.Context, questions, pool []Pair) (*Result, error) {
	return core.NewFromConfig(llm.Dry{}, m.Config()).Resolve(ctx, questions, pool)
}

// MatchStream prepares a resolution and returns a Stream over it: ranging
// stream.All runs the batches, yielding each batch's predictions, token
// usage, and cost delta as it completes, in deterministic batch order;
// Err then reports how the run ended. Nothing is called or billed until
// All is ranged, breaking out of the loop stops the run at the next batch
// boundary, and the run has ended when the loop has. Setup failures (bad
// model, broken partition, a cancelled ctx) surface as the returned error.
func (m *Matcher) MatchStream(ctx context.Context, questions, pool []Pair) (*Stream, error) {
	p, err := m.fw.Prepare(ctx, questions, pool)
	if err != nil {
		return nil, err
	}
	return p.Start(ctx), nil
}

// Score computes the confusion matrix of predictions against the gold
// labels carried by the question pairs.
func Score(questions []Pair, pred []Label) Confusion {
	var c Confusion
	c.AddAll(entity.Labels(questions), pred)
	return c
}

// NewSimulatedClient returns the offline LLM substrate: a deterministic
// simulated model whose error behaviour follows the mechanisms identified
// in the paper (see docs/ARCHITECTURE.md, "Offline substitutions").
// labeled supplies the ground truth the simulator answers from; seed
// decorrelates repeated runs.
func NewSimulatedClient(labeled []Pair, seed int64) Client {
	return llm.NewSimulated(llm.BuildOracle(labeled), seed)
}

// NewOpenAIClient returns a live client for OpenAI-compatible endpoints.
func NewOpenAIClient(baseURL, apiKey string) Client {
	return &llm.OpenAICompatible{BaseURL: baseURL, APIKey: apiKey}
}

// NewAnthropicClient returns a live client for endpoints speaking the
// Anthropic Messages format.
func NewAnthropicClient(baseURL, apiKey string) Client {
	return &llm.AnthropicCompatible{BaseURL: baseURL, APIKey: apiKey}
}

// LoadBenchmark generates a synthetic benchmark clone by name: one of
// the Table II clones WA, AB, AG, DS, DA, FZ, IA, Beer.
func LoadBenchmark(name string, seed int64) (*Dataset, error) {
	return datagen.GenerateByName(name, seed)
}

// CustomBenchmark describes a user-defined synthetic benchmark; see
// GenerateBenchmark.
type CustomBenchmark = datagen.CustomSpec

// BenchmarkAttr describes one attribute of a CustomBenchmark.
type BenchmarkAttr = datagen.AttrSpec

// GenerateBenchmark synthesizes a labeled two-table ER benchmark from a
// user-defined spec — useful for stress-testing matchers on domains the
// built-in clones do not cover.
func GenerateBenchmark(spec CustomBenchmark, seed int64) (*Dataset, error) {
	return datagen.GenerateCustom(spec, seed)
}

// BlockingPostingCap is the posting cap of the token blocker behind
// BlockTables, BlockTablesStream and RunPipeline: a token found in more
// rows of table B than this is too common to block on and is skipped.
const BlockingPostingCap = 512

// tokenBlocker builds the token-overlap blocker behind BlockTables,
// BlockTablesStream and RunPipeline, so minShared <= 0 resolves to the
// same default of 2 on every entry point.
func tokenBlocker(attr string, minShared int) *blocking.TokenBlocker {
	if minShared <= 0 {
		minShared = 2
	}
	return &blocking.TokenBlocker{Attr: attr, MinShared: minShared, MaxPostings: BlockingPostingCap}
}

// BlockTables produces candidate pairs from two raw tables with
// token-overlap blocking on the given attribute (empty = all attributes),
// pairing records that share at least minShared tokens (<= 0 means 2).
// It is BlockTablesStream collected into a slice.
func BlockTables(tableA, tableB []Record, attr string, minShared int) []Pair {
	var pairs []Pair
	// Under a context that is never cancelled the stream yields no
	// error, so only the pairs are read.
	for p := range BlockTablesStream(context.Background(), tableA, tableB, attr, minShared) {
		pairs = append(pairs, p)
	}
	return pairs
}

// BlockTablesStream is the streaming form of BlockTables: candidates are
// yielded as generated, so arbitrarily large candidate sets can be
// consumed in bounded memory. The sequence yields a non-nil error and
// stops if ctx is cancelled mid-generation.
func BlockTablesStream(ctx context.Context, tableA, tableB []Record, attr string, minShared int) iter.Seq2[Pair, error] {
	return tokenBlocker(attr, minShared).BlockStream(ctx, tableA, tableB)
}
