//! The fused ingest→analyze streaming engine — the one production engine:
//! each batch is analysed as it parses, and no query AST ever outlives its
//! batch.
//!
//! [`analyze_streams`] runs one self-scheduling worker pool: workers pull
//! batches from [`LogReader`]s, parse each entry into a per-worker bump
//! arena, fingerprint its canonical form, and immediately resolve the
//! occurrence against a lock-free per-worker occurrence map backed by the
//! shared [`AnalysisCache`]:
//!
//! * a **first occurrence** is analysed on the spot (one
//!   [`QueryAnalysis`] through the worker's term
//!   [`Interner`](sparqlog_parser::intern)) and memoized under its
//!   fingerprint — only the fingerprint and the analysis survive;
//! * a **duplicate occurrence** bumps a per-worker occurrence counter and
//!   its AST is dropped right there — it is never re-fingerprinted or
//!   re-folded.
//!
//! After the stream drains, per-worker occurrence maps merge into per-log
//! [`LogSummary`] records (Table-1 counts plus the distinct fingerprints
//! with their occurrence counts), and one **occurrence-weighted fold**
//! ([`DatasetAnalysis::add_times`]) builds the corpus analysis: the Unique
//! population folds each distinct fingerprint once per log, the Valid
//! population folds it with its occurrence count. Peak residency is
//! O(in-flight batches + distinct analyses), not O(corpus), and each worker
//! holds at most one AST at a time.
//!
//! **Determinism and parity.** Every fold is a commutative sum or an
//! idempotent extremum over exact integers, so reports are byte-identical
//! for any worker count, batch size or schedule. They are also
//! byte-identical to the independent oracle — the materializing
//! [`ingest`](crate::corpus::ingest) followed by the seed multi-walk
//! [`analyze_multiwalk`](crate::baseline::analyze_multiwalk) — which
//! `tests/fused.rs`, `tests/differential.rs` and the `ablation_fused`
//! harness check. The soundness of folding a memoized record for every
//! occurrence is the cache-key argument of [`crate::cache`]: the
//! fingerprint *is* the canonical form.
//!
//! ```
//! use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
//! use sparqlog_core::{report, Population};
//!
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "example",
//!     vec![
//!         "SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string(),
//!         "SELECT   ?x WHERE { ?x a <http://example.org/C> }".to_string(), // duplicate
//!         "ASK { ?x <http://example.org/p> ?y }".to_string(),
//!         "not a query".to_string(),
//!     ],
//! ))];
//! let fused = analyze_streams(readers, Population::Valid).expect("in-memory streams");
//! assert_eq!(fused.summaries[0].counts.valid, 3);
//! assert_eq!(fused.summaries[0].counts.unique, 2);
//! assert_eq!(fused.corpus.combined.keywords.total_queries, 3);
//! println!("{}", report::table1(&fused.corpus));
//! ```

use crate::analysis::{
    chunked_fold_pool, merge_into_corpus, AnalysisStats, CorpusAnalysis, DatasetAnalysis,
    Population,
};
use crate::cache::AnalysisCache;
use crate::corpus::{
    clamp_workers, default_workers, BatchSource, CorpusCounts, FingerprintBuildHasher, LogReader,
    INGEST_CHUNK,
};
use crate::query_analysis::QueryAnalysis;
use crate::recover::{enforce_budget, ErrorTally, RecoveryContext, RecoveryPolicy};
use serde::{Deserialize, Serialize};
use sparqlog_obs as obs;
use sparqlog_parser::intern::{InternStats, Interner};
use sparqlog_parser::{canonical_fingerprint_of_ref, Arena, ErrorKind};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs for the fused engine. The report never depends on them —
/// only the schedule and the memory profile do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedOptions {
    /// Worker threads; `0` uses [`default_workers`] (which honours the
    /// `SPARQLOG_WORKERS` environment override).
    pub workers: usize,
    /// Entries per batch pulled from a reader; `0` picks the default (512).
    pub batch: usize,
    /// What to do on defective entries (invalid UTF-8 lines, tripped
    /// resource guards, caught panics); see [`RecoveryPolicy`].
    pub recovery: RecoveryPolicy,
}

impl FusedOptions {
    fn resolve(&self) -> (usize, usize) {
        (
            if self.workers > 0 {
                self.workers
            } else {
                default_workers()
            },
            if self.batch > 0 {
                self.batch
            } else {
                INGEST_CHUNK
            },
        )
    }
}

/// What the fused engine keeps per log instead of the ASTs: the Table-1
/// counts and the distinct canonical fingerprints with their occurrence
/// counts. Two summaries of the same log shards merge by summing matching
/// fingerprints, which is what a future cross-process deployment combines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogSummary {
    /// The dataset label.
    pub label: String,
    /// Table-1 counts (`unique` is the number of distinct fingerprints,
    /// `valid` the sum of their occurrence counts).
    pub counts: CorpusCounts,
    /// `(fingerprint, occurrences)` for every distinct canonical form, in
    /// ascending fingerprint order (deterministic for any schedule).
    pub occurrences: Vec<(u128, u64)>,
    /// The malformed-entry tally of this log: per-kind counts and the
    /// earliest offending entry positions, identical for every engine,
    /// worker count and batch schedule.
    pub errors: ErrorTally,
}

impl LogSummary {
    /// Merges another summary of the **same log** (e.g. one produced by a
    /// different process over a different slice of the log's entries):
    /// `total`, `valid` and `bodyless` add, matching fingerprints sum their
    /// occurrence counts, and `unique` is recomputed from the merged
    /// distinct set. The operation is commutative and keeps the sorted-order
    /// invariant of [`LogSummary::occurrences`], so per-shard summaries can
    /// be combined in any order with identical results — the cross-process
    /// merge hook of the `sparqlog-shard` subsystem.
    pub fn merge(&mut self, other: &LogSummary) {
        debug_assert_eq!(
            self.label, other.label,
            "LogSummary::merge combines shards of one log"
        );
        let mut merged = Vec::with_capacity(self.occurrences.len() + other.occurrences.len());
        let (mut left, mut right) = (self.occurrences.iter(), other.occurrences.iter());
        let (mut a, mut b) = (left.next(), right.next());
        loop {
            match (a, b) {
                (Some(&(fa, ca)), Some(&(fb, cb))) => {
                    if fa < fb {
                        merged.push((fa, ca));
                        a = left.next();
                    } else if fb < fa {
                        merged.push((fb, cb));
                        b = right.next();
                    } else {
                        merged.push((fa, ca + cb));
                        a = left.next();
                        b = right.next();
                    }
                }
                (Some(&pair), None) => {
                    merged.push(pair);
                    a = left.next();
                }
                (None, Some(&pair)) => {
                    merged.push(pair);
                    b = right.next();
                }
                (None, None) => break,
            }
        }
        self.occurrences = merged;
        self.counts.total += other.counts.total;
        self.counts.valid += other.counts.valid;
        self.counts.bodyless += other.counts.bodyless;
        self.counts.unique = self.occurrences.len() as u64;
        self.errors.merge(&other.errors);
    }

    /// The occurrence count of a fingerprint, or 0 if the log never saw it.
    pub fn occurrences_of(&self, fingerprint: u128) -> u64 {
        self.occurrences
            .binary_search_by_key(&fingerprint, |&(fp, _)| fp)
            .map(|i| self.occurrences[i].1)
            .unwrap_or(0)
    }
}

/// Residency observability of one fused run — evidence for the
/// O(in-flight + distinct) memory claim, printed by the `ablation_fused`
/// harness. Never part of the corpus report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusedStats {
    /// Batches pulled from the readers.
    pub batches: u64,
    /// The largest number of raw entries resident in worker batches at any
    /// instant — the in-flight bound (≤ workers × batch size), independent
    /// of corpus size. Each worker additionally
    /// holds at most **one** parsed AST at a time.
    pub peak_inflight_entries: usize,
    /// Distinct canonical forms seen by *this run's* streams (what survives
    /// the stream) — not the size of the backing cache, which may carry
    /// entries from other corpora when the caller shares it across runs.
    pub distinct_forms: u64,
}

/// The result of a fused run: per-log summaries (counts + fingerprints),
/// the corpus analysis over the requested population, and the run's
/// cache/interner/residency counters.
#[derive(Debug, Clone)]
pub struct FusedAnalysis {
    /// Per-log summaries, in reader order.
    pub summaries: Vec<LogSummary>,
    /// The corpus analysis (byte-identical to the oracle's).
    pub corpus: CorpusAnalysis,
    /// Cache and interner counters of the run.
    pub stats: AnalysisStats,
    /// Residency counters of the run.
    pub fused: FusedStats,
}

/// One worker's private state: lock-free per-log occurrence maps, the term
/// interner threaded through every analysis, the bump arena every AST is
/// parsed into, and the number of shared-cache consultations
/// (first-local-occurrence lookups).
struct FusedWorker {
    counts: Vec<HashMap<u128, u64, FingerprintBuildHasher>>,
    tallies: Vec<ErrorTally>,
    interner: Interner,
    arena: Arena,
    lookups: u64,
    /// Analyze-stage latency, recorded only on cache misses (first
    /// occurrence of a canonical form), so duplicates stay untimed.
    analyze_us: &'static obs::LatencyHistogram,
}

impl FusedWorker {
    fn new(log_count: usize) -> FusedWorker {
        FusedWorker {
            counts: (0..log_count).map(|_| HashMap::default()).collect(),
            tallies: vec![ErrorTally::default(); log_count],
            interner: Interner::new(),
            arena: Arena::new(),
            lookups: 0,
            analyze_us: obs::global().histogram("pipeline_analyze_us"),
        }
    }

    /// Parses, fingerprints and resolves one batch. Each valid entry's AST
    /// is bump-allocated into the worker's arena and lives exactly as long
    /// as this loop's iteration: the arena is reset before the next entry
    /// parses, so a first occurrence is analysed into the cache (fingerprint
    /// and analysis own their data), a duplicate only bumps the local
    /// counter, and steady-state parsing touches the global allocator only
    /// when a canonical form is new.
    ///
    /// Every entry parses through the shared guarded helper
    /// ([`RecoveryContext::parse_entry`]): resource-guard trips and caught
    /// panics either abort with a structured error (strict mode) or are
    /// tallied at the entry's batch-assigned position; plain lex/syntax
    /// failures are tallied in every mode, exactly as the oracle's
    /// [`ingest`](crate::corpus::ingest) counts them.
    fn process_batch(
        &mut self,
        log_index: usize,
        start: u64,
        batch: &[String],
        cache: &AnalysisCache,
        ctx: &RecoveryContext,
        label: &str,
    ) -> io::Result<()> {
        for (offset, entry) in batch.iter().enumerate() {
            self.arena.reset();
            let map = &mut self.counts[log_index];
            let interner = &mut self.interner;
            let lookups = &mut self.lookups;
            let analyze_us = self.analyze_us;
            let parsed = ctx.parse_entry(entry, &self.arena, |query| {
                let fingerprint = canonical_fingerprint_of_ref(&query);
                let slot = map.entry(fingerprint).or_insert(0);
                if *slot == 0 {
                    *lookups += 1;
                    cache.get_or_insert_with(fingerprint, || {
                        let _span = analyze_us.span();
                        QueryAnalysis::of_ref(&query, interner)
                    });
                }
                *slot += 1;
            });
            if let Err(error) = parsed {
                if error.kind == ErrorKind::WorkerPanic {
                    // The unwind may have left a partially filled chunk;
                    // release the arena's memory entirely.
                    self.arena.trim();
                }
                if ctx.fatal(error.kind) {
                    return Err(ctx.fatal_error(label, start + offset as u64, &error));
                }
                self.tallies[log_index].record(error.kind, start + offset as u64);
            }
        }
        Ok(())
    }
}

/// Streams every reader through the fused ingest→analyze pipeline with
/// default options and a run-scoped [`AnalysisCache`].
///
/// Byte-identical to the oracle ([`ingest`](crate::corpus::ingest) then
/// [`analyze_multiwalk`](crate::baseline::analyze_multiwalk)), as
/// `tests/fused.rs` checks, but no AST survives its batch.
pub fn analyze_streams(
    readers: Vec<Box<dyn LogReader + '_>>,
    population: Population,
) -> io::Result<FusedAnalysis> {
    analyze_streams_with(readers, population, FusedOptions::default())
}

/// [`analyze_streams`] with explicit options. The output is identical for
/// any worker count or batch size.
pub fn analyze_streams_with(
    readers: Vec<Box<dyn LogReader + '_>>,
    population: Population,
    options: FusedOptions,
) -> io::Result<FusedAnalysis> {
    let cache = AnalysisCache::new();
    analyze_streams_cached(readers, population, options, &cache)
}

/// [`analyze_streams`] against a caller-owned [`AnalysisCache`]: analyses
/// memoized by earlier runs — other logs, the other population — are
/// reused, so switching populations over the same streams re-analyses
/// nothing.
pub fn analyze_streams_cached(
    readers: Vec<Box<dyn LogReader + '_>>,
    population: Population,
    options: FusedOptions,
    cache: &AnalysisCache,
) -> io::Result<FusedAnalysis> {
    let (workers, batch_size) = options.resolve();
    let workers = clamp_workers(&readers, workers, batch_size).max(1);
    let ctx = RecoveryContext::new(options.recovery);
    let labels: Vec<String> = readers.iter().map(|r| r.label().to_string()).collect();
    let log_count = readers.len();
    let mut source = BatchSource::new(readers, batch_size, ctx.policy.recovers());

    // Observability handles, hoisted once: spans are batch-granular (one
    // clock pair per batch, never per entry) and counters flush totals in
    // the epilogue below, so instrumentation stays inside the overhead
    // budget `ablation_obs` gates — and is entirely free when disabled.
    let metrics_on = obs::enabled();
    let cache_before = cache.stats();
    let read_us = obs::global().histogram("pipeline_read_us");
    let parse_us = obs::global().histogram("pipeline_parse_us");
    let read_bytes = obs::global().counter("pipeline_read_bytes_total");

    let batches = AtomicU64::new(0);
    let inflight = AtomicUsize::new(0);
    let peak_inflight = AtomicUsize::new(0);
    let note_claimed = |entries: usize| {
        batches.fetch_add(1, Ordering::Relaxed);
        let now = inflight.fetch_add(entries, Ordering::Relaxed) + entries;
        peak_inflight.fetch_max(now, Ordering::Relaxed);
    };
    let note_done = |entries: usize| {
        inflight.fetch_sub(entries, Ordering::Relaxed);
    };

    // One worker body for every pool size. Worker 0 runs on the calling
    // thread, so a 1-worker run (shard and serve worker processes) spawns no
    // thread; helpers 1.. run on scoped threads. The first error wins, and
    // every worker drains out once the source reports exhaustion or failure.
    let source = Mutex::new(&mut source);
    let failure: Mutex<Option<io::Error>> = Mutex::new(None);
    let fail = |error: io::Error| {
        failure
            .lock()
            .expect("fused workers must not panic")
            .get_or_insert(error);
    };
    let run_worker = || {
        let mut worker = FusedWorker::new(log_count);
        let mut batch = Vec::new();
        loop {
            batch.clear();
            let claimed = {
                let _read_span = read_us.span();
                source
                    .lock()
                    .expect("fused workers must not panic")
                    .next_batch(&mut batch)
            };
            let (log_index, start) = match claimed {
                Ok(Some(tag)) => tag,
                Ok(None) => break,
                Err(error) => {
                    fail(error);
                    break;
                }
            };
            note_claimed(batch.len());
            if metrics_on {
                read_bytes.add(batch.iter().map(|entry| entry.len() as u64).sum());
            }
            let processed = {
                let _parse_span = parse_us.span();
                worker.process_batch(log_index, start, &batch, cache, &ctx, &labels[log_index])
            };
            note_done(batch.len());
            if let Err(error) = processed {
                fail(error);
                break;
            }
        }
        worker
    };
    let states: Vec<FusedWorker> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
        let mut states = vec![run_worker()];
        states.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("fused workers must not panic")),
        );
        states
    });
    if let Some(error) = failure.into_inner().expect("no poisoned workers") {
        return Err(error);
    }
    let source = source.into_inner().expect("no poisoned workers");

    // Merge the per-worker occurrence maps and error tallies per log
    // (commutative, so worker order is irrelevant), collect counters. The
    // reader-level defect tallies accumulated at the batch source seed the
    // per-log totals. The merge span covers everything from here to the
    // folded corpus: per-worker state union, summary construction, the
    // budget check and the occurrence-weighted fold.
    let _merge_span = obs::global().histogram("pipeline_merge_us").span();
    let mut merged: Vec<HashMap<u128, u64, FingerprintBuildHasher>> =
        (0..log_count).map(|_| HashMap::default()).collect();
    let mut tallies: Vec<ErrorTally> = std::mem::take(&mut source.tallies);
    let mut interner_stats = InternStats::default();
    let mut lookups = 0u64;
    for state in states {
        interner_stats.merge(&state.interner.stats());
        lookups += state.lookups;
        for (log_index, tally) in state.tallies.iter().enumerate() {
            tallies[log_index].merge(tally);
        }
        for (log_index, map) in state.counts.into_iter().enumerate() {
            let target = &mut merged[log_index];
            if target.is_empty() {
                *target = map;
            } else {
                for (fingerprint, count) in map {
                    *target.entry(fingerprint).or_insert(0) += count;
                }
            }
        }
    }

    // Fetch each distinct record from the shared cache exactly once; the
    // summary pass and the fold below then read this lock-free map. Its
    // size is also this run's distinct-form count — correct even when a
    // caller-owned cache carries entries from other corpora.
    let mut records: HashMap<u128, Arc<QueryAnalysis>, FingerprintBuildHasher> = HashMap::default();
    for map in &merged {
        for &fingerprint in map.keys() {
            records.entry(fingerprint).or_insert_with(|| {
                cache
                    .get(fingerprint)
                    .expect("every streamed fingerprint is memoized")
            });
        }
    }

    // Per-log summaries: sorted occurrence lists make every downstream
    // iteration deterministic; `bodyless` folds the memoized records'
    // occurrence counts (body-ness is a function of the canonical form).
    let mut summaries = Vec::with_capacity(log_count);
    for (log_index, (label, map)) in labels.into_iter().zip(merged).enumerate() {
        let mut occurrences: Vec<(u128, u64)> = map.into_iter().collect();
        occurrences.sort_unstable_by_key(|&(fingerprint, _)| fingerprint);
        let mut valid = 0u64;
        let mut bodyless = 0u64;
        for &(fingerprint, count) in &occurrences {
            valid += count;
            if !records[&fingerprint].features.has_body {
                bodyless += count;
            }
        }
        summaries.push(LogSummary {
            label,
            counts: CorpusCounts {
                total: source.totals[log_index],
                valid,
                unique: occurrences.len() as u64,
                bodyless,
            },
            occurrences,
            errors: std::mem::take(&mut tallies[log_index]),
        });
    }

    // The budget check runs once, over the merged end-of-run tallies. The
    // shard workers and the serve path stream as Lenient and leave this
    // check to their coordinator, so every deployment reaches the same
    // verdict over the same merged tallies.
    let mut combined_errors = ErrorTally::default();
    let mut total_entries = 0u64;
    for summary in &summaries {
        combined_errors.merge(&summary.errors);
        total_entries += summary.counts.total;
    }
    enforce_budget(ctx.policy, &combined_errors, total_entries)?;

    // Duplicate occurrences were absorbed by the local maps without touching
    // the shared cache; credit them so `hits + misses` still equals the
    // number of valid occurrences.
    let valid_total: u64 = summaries.iter().map(|s| s.counts.valid).sum();
    cache.record_reused(valid_total - lookups);

    let corpus = fold_populations(&summaries, population, &records, workers);
    let stats = AnalysisStats {
        cache: Some(cache.stats()),
        interner: interner_stats,
    };
    let fused = FusedStats {
        batches: batches.into_inner(),
        peak_inflight_entries: peak_inflight.into_inner(),
        distinct_forms: records.len() as u64,
    };

    // The per-entry facts flush as whole-run totals here — one counter add
    // per run per fact, instead of one per entry on the hot path. Cache
    // counters flush as this run's delta, so a caller-owned cache shared
    // across runs is not double-counted.
    if metrics_on {
        let registry = obs::global();
        registry.counter("pipeline_runs_total").incr();
        registry
            .counter("pipeline_batches_total")
            .add(fused.batches);
        registry
            .counter("pipeline_entries_total")
            .add(total_entries);
        registry.counter("pipeline_valid_total").add(valid_total);
        registry
            .counter("pipeline_errors_total")
            .add(combined_errors.total());
        registry
            .counter("pipeline_distinct_forms_total")
            .add(fused.distinct_forms);
        let cache_after = stats.cache.unwrap_or_default();
        registry
            .counter("cache_hits_total")
            .add(cache_after.hits.saturating_sub(cache_before.hits));
        registry
            .counter("cache_misses_total")
            .add(cache_after.misses.saturating_sub(cache_before.misses));
        registry
            .gauge("cache_distinct_forms")
            .set(cache_after.distinct as i64);
    }

    Ok(FusedAnalysis {
        summaries,
        corpus,
        stats,
        fused,
    })
}

/// The occurrence-weighted fold: each distinct fingerprint of each log folds
/// its memoized analysis exactly once — with weight 1 on the Unique
/// population ("distinct fingerprints") and with its occurrence count on the
/// Valid population. O(distinct) tally work regardless of duplication,
/// parallelised over a chunked self-scheduling pool; the weighted adds are
/// exact integer sums, so any schedule yields the same bytes.
fn fold_populations(
    summaries: &[LogSummary],
    population: Population,
    records: &HashMap<u128, Arc<QueryAnalysis>, FingerprintBuildHasher>,
    workers: usize,
) -> CorpusAnalysis {
    let items: Vec<(usize, u128, u64)> = summaries
        .iter()
        .enumerate()
        .flat_map(|(log_index, summary)| {
            summary
                .occurrences
                .iter()
                .map(move |&(fingerprint, count)| (log_index, fingerprint, count))
        })
        .collect();
    let chunk_size = (items.len() / (workers * 8).max(1)).clamp(16, 1024);
    let accumulators = chunked_fold_pool(
        &items,
        summaries.len(),
        workers,
        chunk_size,
        |acc, &(log_index, fingerprint, count)| {
            let weight = match population {
                Population::Unique => 1,
                Population::Valid => count,
            };
            acc[log_index].add_times(&records[&fingerprint], weight);
        },
    );

    let datasets: Vec<DatasetAnalysis> = summaries
        .iter()
        .map(|summary| DatasetAnalysis {
            label: summary.label.clone(),
            counts: summary.counts,
            errors: summary.errors.clone(),
            ..DatasetAnalysis::default()
        })
        .collect();
    merge_into_corpus(datasets, &accumulators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::analyze_multiwalk;
    use crate::corpus::{ingest, MemoryLogReader, RawLog};
    use crate::report::full_report;

    fn readers_of(entries: &[&str]) -> Vec<Box<dyn LogReader + 'static>> {
        vec![Box::new(MemoryLogReader::new(
            "test",
            entries.iter().map(|s| s.to_string()).collect(),
        ))]
    }

    const ENTRIES: [&str; 6] = [
        "SELECT ?x WHERE { ?x a <http://C> }",
        "SELECT   ?x   WHERE { ?x a <http://C> }", // duplicate modulo whitespace
        "not a sparql query at all",
        "ASK { <http://s> <http://p> <http://o> }",
        "DESCRIBE <http://r>",
        "SELECT ?x WHERE { ?x a <http://C> }", // duplicate again
    ];

    #[test]
    fn summary_counts_match_the_oracle_ingest() {
        let fused = analyze_streams(readers_of(&ENTRIES), Population::Unique).unwrap();
        let oracle = ingest(&RawLog::new(
            "test",
            ENTRIES.iter().map(|s| s.to_string()).collect(),
        ));
        assert_eq!(fused.summaries[0].counts, oracle.counts);
        let summary = &fused.summaries[0];
        assert_eq!(summary.occurrences.len(), 3);
        let total: u64 = summary.occurrences.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, summary.counts.valid);
        assert!(summary
            .occurrences
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0));
        let (fp, count) = summary.occurrences[0];
        assert_eq!(summary.occurrences_of(fp), count);
        let absent = summary
            .occurrences
            .iter()
            .map(|&(f, _)| f)
            .max()
            .expect("non-empty summary")
            .wrapping_add(1);
        assert_eq!(summary.occurrences_of(absent), 0);
    }

    #[test]
    fn split_log_summaries_merge_back_to_the_whole_log() {
        // Split the log's entries at a point that separates duplicates of
        // one canonical form, summarize each half independently (the
        // cross-process scenario), and merge: the result must equal the
        // whole-log summary, in either merge order.
        let whole = analyze_streams(readers_of(&ENTRIES), Population::Valid).unwrap();
        let first = analyze_streams(readers_of(&ENTRIES[..3]), Population::Valid).unwrap();
        let second = analyze_streams(readers_of(&ENTRIES[3..]), Population::Valid).unwrap();
        let mut ab = first.summaries[0].clone();
        ab.merge(&second.summaries[0]);
        let mut ba = second.summaries[0].clone();
        ba.merge(&first.summaries[0]);
        assert_eq!(ab, whole.summaries[0]);
        assert_eq!(ba, whole.summaries[0]);
        assert!(ab.occurrences.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn fused_reports_match_the_oracle_on_both_populations() {
        for population in [Population::Unique, Population::Valid] {
            let fused = analyze_streams(readers_of(&ENTRIES), population).unwrap();
            let oracle_logs = vec![ingest(&RawLog::new(
                "test",
                ENTRIES.iter().map(|s| s.to_string()).collect(),
            ))];
            let oracle = analyze_multiwalk(&oracle_logs, population);
            assert_eq!(
                full_report(&fused.corpus),
                full_report(&oracle),
                "fused vs oracle mismatch on {population:?}"
            );
        }
    }

    #[test]
    fn table1_from_summaries_matches_the_analysis_rendering() {
        let fused = analyze_streams(readers_of(&ENTRIES), Population::Unique).unwrap();
        assert_eq!(
            crate::report::table1_from_summaries(&fused.summaries),
            crate::report::table1(&fused.corpus)
        );
    }

    #[test]
    fn occurrence_accounting_covers_every_valid_entry() {
        let fused = analyze_streams(readers_of(&ENTRIES), Population::Valid).unwrap();
        let cache_stats = fused.stats.cache.expect("fused runs always use a cache");
        assert_eq!(cache_stats.hits + cache_stats.misses, 5);
        assert_eq!(cache_stats.distinct, 3);
        assert_eq!(fused.fused.distinct_forms, 3);
        assert!(fused.fused.batches >= 1);
        assert!(fused.fused.peak_inflight_entries >= ENTRIES.len().min(INGEST_CHUNK));
    }

    #[test]
    fn distinct_forms_counts_this_run_not_the_shared_cache() {
        let cache = AnalysisCache::new();
        let first = analyze_streams_cached(
            readers_of(&ENTRIES),
            Population::Valid,
            FusedOptions::default(),
            &cache,
        )
        .unwrap();
        assert_eq!(first.fused.distinct_forms, 3);
        // A second, smaller corpus on the same cache: its stats must count
        // its own two distinct forms, not the cache's accumulated four.
        let second = analyze_streams_cached(
            readers_of(&["ASK { ?a <http://q> ?b }", "DESCRIBE <http://r>"]),
            Population::Valid,
            FusedOptions::default(),
            &cache,
        )
        .unwrap();
        assert_eq!(second.fused.distinct_forms, 2);
        assert_eq!(cache.len(), 4); // DESCRIBE <http://r> was already memoized
    }

    #[test]
    fn tiny_batches_and_worker_counts_agree() {
        let reference = analyze_streams(readers_of(&ENTRIES), Population::Valid).unwrap();
        for workers in [1, 2, 8] {
            for batch in [1, 2, 64] {
                let fused = analyze_streams_with(
                    readers_of(&ENTRIES),
                    Population::Valid,
                    FusedOptions {
                        workers,
                        batch,
                        recovery: RecoveryPolicy::default(),
                    },
                )
                .unwrap();
                assert_eq!(
                    full_report(&fused.corpus),
                    full_report(&reference.corpus),
                    "workers {workers}, batch {batch}"
                );
                assert_eq!(fused.summaries, reference.summaries);
            }
        }
    }
}
