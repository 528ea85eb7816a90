//! Ablation: the fingerprint-keyed analysis cache (+ interned-term
//! allocation diet) against the uncached oracle, on a duplicate-heavy
//! synthetic corpus.
//!
//! The corpus is the standard synthetic one with every log tiled several
//! times, pushing the mean occurrence rate (valid / unique) to at least 3× —
//! the duplication regime the source paper reports for real logs, where the
//! "all" population re-analyses the same canonical forms over and over.
//!
//! Both contenders run end to end from the same raw logs: the **oracle**
//! (`ingest` then the seed multi-walk `analyze_multiwalk`) analyses every
//! occurrence from scratch; the **fused engine** analyses each canonical
//! form once and folds it occurrence-weighted.
//!
//! The binary doubles as a CI differential gate: it renders the **full
//! corpus report** through the fused engine and the oracle on both
//! populations and **exits non-zero if any byte differs**. The acceptance
//! target is a >= 1.5x end-to-end speedup on the Valid population plus a
//! nonzero interner savings counter; both are printed for the workflow
//! artifact.

use sparqlog_bench::gate::DivergenceGate;
use sparqlog_bench::{banner, oracle_corpus, raw_corpus, stats_banner, HarnessOptions};
use sparqlog_core::analysis::Population;
use sparqlog_core::cache::AnalysisCache;
use sparqlog_core::corpus::{
    analyze_streams_cached, FusedAnalysis, FusedOptions, LogReader, RawLog, SliceLogReader,
};
use sparqlog_core::report::full_report;
use std::time::Instant;

/// How many times each log's entries are tiled: every query occurs at least
/// this many times, so the mean occurrence rate is at least `TILE` (the
/// synthesizer's own duplicates push it higher).
const TILE: usize = 4;

/// The measured runs per contender; the minimum wall-clock wins.
const REPEATS: usize = 3;

fn duplicate_heavy(raw: Vec<RawLog>) -> Vec<RawLog> {
    raw.into_iter()
        .map(|log| {
            let mut entries = Vec::with_capacity(log.entries.len() * TILE);
            for _ in 0..TILE {
                entries.extend(log.entries.iter().cloned());
            }
            RawLog::new(log.label, entries)
        })
        .collect()
}

/// One fused run over borrowed raw logs against `cache`.
fn run_fused(raw: &[RawLog], population: Population, cache: &AnalysisCache) -> FusedAnalysis {
    let readers: Vec<Box<dyn LogReader + '_>> = raw
        .iter()
        .map(|log| Box::new(SliceLogReader::of(log)) as Box<dyn LogReader + '_>)
        .collect();
    analyze_streams_cached(readers, population, FusedOptions::default(), cache)
        .expect("in-memory streams cannot fail")
}

/// Times `run` over [`REPEATS`] runs; returns the last result and the
/// minimum wall-clock.
fn measure<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        result = Some(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (result.expect("at least one repeat"), best)
}

fn main() {
    let opts = HarnessOptions::from_args();
    banner("ablation: fingerprint-keyed analysis cache", &opts);
    let raw = duplicate_heavy(raw_corpus(&opts));

    // -- End-to-end analysis of the Valid ("all") population. ---------------
    let (oracle_valid, oracle_time) = measure(|| oracle_corpus(&raw, Population::Valid));
    // A fresh cache per repeat: the measured run is a cold corpus run, not a
    // warm-cache rerun.
    let (fused_valid, fused_time) =
        measure(|| run_fused(&raw, Population::Valid, &AnalysisCache::new()));

    let counts = &fused_valid.corpus.combined.counts;
    let (valid, unique) = (counts.valid, counts.unique);
    let occurrence_rate = valid as f64 / unique.max(1) as f64;
    println!(
        "corpus: {} valid queries, {} distinct canonical forms, mean occurrence rate {:.2}x \
         (target >= 3x: {})\n",
        valid,
        unique,
        occurrence_rate,
        if occurrence_rate >= 3.0 {
            "PASS"
        } else {
            "MISS"
        }
    );
    let speedup = oracle_time / fused_time;
    println!(
        "{:<52} {:>10} {:>14}",
        "end-to-end ingest+analyze (Valid population)", "time", "queries/s"
    );
    println!(
        "{:<52} {:>8.2}ms {:>14.0}",
        "oracle (multi-walk analysis per occurrence)",
        oracle_time * 1e3,
        valid as f64 / oracle_time
    );
    println!(
        "{:<52} {:>8.2}ms {:>14.0}",
        "fused (memoized per canonical form)",
        fused_time * 1e3,
        valid as f64 / fused_time
    );
    println!(
        "speedup: {:.2}x (target >= 1.5x: {})\n",
        speedup,
        if speedup >= 1.5 { "PASS" } else { "MISS" }
    );
    println!("{}\n", stats_banner(&fused_valid.stats));

    // -- Population switch: a shared cache serves the Unique rerun. ---------
    let shared = AnalysisCache::new();
    let valid_run = run_fused(&raw, Population::Valid, &shared);
    let before_switch = shared.stats();
    let unique_run = run_fused(&raw, Population::Unique, &shared);
    let after_switch = shared.stats();
    println!(
        "population switch (Valid -> Unique on one cache): {} further analyses, {} reused \
         of {} unique-population lookups",
        after_switch.misses - before_switch.misses,
        after_switch.hits - before_switch.hits,
        unique,
    );

    // -- Differential gate: full reports must be byte-identical. ------------
    let mut gate = DivergenceGate::new();
    let oracle_unique = oracle_corpus(&raw, Population::Unique);
    for (population, fused, oracle) in [
        (Population::Valid, &fused_valid, &oracle_valid),
        (Population::Valid, &valid_run, &oracle_valid),
        (Population::Unique, &unique_run, &oracle_unique),
    ] {
        gate.compare(
            &format!("corpus report differs on {population:?}"),
            &full_report(oracle),
            &full_report(&fused.corpus),
        );
    }
    gate.require(
        fused_valid.stats.cache.map_or(0, |c| c.hits) > 0,
        "cache reported zero hits on a duplicate-heavy corpus",
    );
    gate.require(
        fused_valid.stats.interner.bytes_saved > 0,
        "interner reported zero savings",
    );
    gate.finish("fused (cached) and oracle corpus reports are byte-identical on both populations");
}
