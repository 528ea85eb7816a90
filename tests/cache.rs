//! The fingerprint-keyed analysis cache and the interned-term allocation
//! diet: differential proof that the fused engine (cache on, interned
//! terms) renders reports byte-identical to the uncached, string-term
//! oracle, duplicate handling at cache shard boundaries, cross-call cache
//! reuse, and the commutative merge.

mod common;

use common::{fused, oracle, oracle_logs, single_pass, slice_readers};
use proptest::prelude::*;
use sparqlog::core::cache::AnalysisCache;
use sparqlog::core::corpus::{analyze_streams_cached, FusedAnalysis, FusedOptions, RawLog};
use sparqlog::core::report::full_report;
use sparqlog::core::Population;
use sparqlog::synth::{generate_single_day_log, Dataset, DatasetProfile, Synthesizer};

/// A fixed duplicate-heavy corpus: three synthesized day logs, each tiled
/// three times so every canonical form occurs at least three times.
fn duplicate_heavy_corpus() -> Vec<RawLog> {
    let mut raw = Vec::new();
    for (i, dataset) in [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13]
        .iter()
        .enumerate()
    {
        let day = generate_single_day_log(*dataset, 80, 400 + i as u64);
        let mut entries = Vec::new();
        for _ in 0..3 {
            entries.extend(day.entries.iter().cloned());
        }
        raw.push(RawLog::new(day.dataset.label(), entries));
    }
    raw
}

/// The fused engine over `logs` against a caller-owned cache.
fn fused_cached(logs: &[RawLog], population: Population, cache: &AnalysisCache) -> FusedAnalysis {
    analyze_streams_cached(
        slice_readers(logs),
        population,
        FusedOptions::default(),
        cache,
    )
    .expect("in-memory streams cannot fail")
}

#[test]
fn cache_on_and_cache_off_reports_are_byte_identical_on_a_fixed_corpus() {
    // The fused engine always memoizes; the oracle analyses every
    // occurrence from scratch.
    let raw = duplicate_heavy_corpus();
    for population in [Population::Unique, Population::Valid] {
        let cached = fused(&raw, population, 0, 0);
        let uncached = oracle(&raw, population);
        assert_eq!(
            full_report(&cached.corpus),
            full_report(&uncached),
            "cache-on vs cache-off report mismatch on {population:?}"
        );
        // The debug representation (every tally field) must agree too.
        assert_eq!(format!("{:?}", cached.corpus), format!("{uncached:?}"));
        let cache_stats = cached.stats.cache.expect("fused runs report cache stats");
        if population == Population::Valid {
            assert!(cache_stats.hits > 0, "duplicates must hit the cache");
        }
        assert!(
            cached.stats.interner.bytes_saved > 0,
            "interner must save bytes"
        );
    }
}

#[test]
fn interned_term_analysis_matches_the_string_term_baseline() {
    // The multi-walk oracle runs entirely on string terms (string
    // union-find, string-keyed canonical-graph index); the fused engine runs
    // on the interned diet. Byte-identical corpus reports prove the diet
    // changes allocations only — at every worker count.
    let raw = duplicate_heavy_corpus();
    for population in [Population::Unique, Population::Valid] {
        let reference = format!("{:?}", oracle(&raw, population));
        for workers in [1, 4] {
            let interned = fused(&raw, population, workers, 16);
            assert_eq!(
                reference,
                format!("{:?}", interned.corpus),
                "interned vs string-term mismatch on {population:?} at {workers} workers"
            );
        }
    }
}

#[test]
fn shared_cache_survives_the_population_switch_and_duplicates_across_logs() {
    let raw = duplicate_heavy_corpus();
    let cache = AnalysisCache::new();
    let valid_run = fused_cached(&raw, Population::Valid, &cache);
    let after_valid = cache.stats();
    let unique_run = fused_cached(&raw, Population::Unique, &cache);
    let after_unique = cache.stats();
    // Every unique-population query is a canonical form the Valid run
    // already memoized: the switch must not analyse anything new.
    assert_eq!(after_valid.misses, after_unique.misses);
    assert_eq!(after_valid.distinct, after_unique.distinct);
    assert!(after_unique.hits > after_valid.hits);
    // And the shared-cache runs agree with the uncached oracle.
    assert_eq!(
        full_report(&valid_run.corpus),
        full_report(&oracle(&raw, Population::Valid))
    );
    assert_eq!(
        full_report(&unique_run.corpus),
        full_report(&oracle(&raw, Population::Unique))
    );
}

#[test]
fn duplicates_straddling_cache_shard_boundaries_are_memoized_once() {
    // Single-shard and many-shard caches must agree: a fingerprint's shard
    // assignment never affects what is memoized.
    let raw = duplicate_heavy_corpus();
    let logs = oracle_logs(&raw);
    let lookups: u64 = logs.iter().map(|l| l.counts.valid).sum();
    let single = AnalysisCache::with_shards(1);
    let many = AnalysisCache::with_shards(64);
    for cache in [&single, &many] {
        fused_cached(&raw, Population::Valid, cache);
        // Every valid occurrence is exactly one lookup, and the
        // duplicate-dominated shape means hits far exceed distinct forms.
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        assert!(stats.hits > stats.distinct);
    }
    assert_eq!(single.len(), many.len());
    // The oracle's materialized-string fingerprints key both caches.
    for log in &logs {
        for &fp in &log.fingerprints {
            let a = single.get(fp).expect("memoized in the single shard");
            let b = many.get(fp).expect("memoized across 64 shards");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

#[test]
fn merged_worker_caches_serve_identical_lookups() {
    // Split the corpus in two, analyse each half into its own cache, merge
    // both ways: every fingerprint of the full corpus resolves identically.
    let raw = duplicate_heavy_corpus();
    let (first_half, second_half) = raw.split_at(1);
    let build = |part: &[RawLog]| {
        let cache = AnalysisCache::new();
        fused_cached(part, Population::Valid, &cache);
        cache
    };
    let ab = build(first_half);
    ab.merge(build(second_half));
    let ba = build(second_half);
    ba.merge(build(first_half));
    assert_eq!(ab.len(), ba.len());
    for log in &oracle_logs(&raw) {
        for &fp in &log.fingerprints {
            let a = ab.get(fp).expect("merged cache covers the corpus");
            let b = ba.get(fp).expect("merge is commutative");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cached fused engine and the uncached oracle agree on any
    /// synthesized corpus, for any worker count and batch size, on both
    /// populations.
    #[test]
    fn cached_reports_match_uncached_on_synthesized_corpora(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        workers in 1usize..5,
        batch in 0usize..16,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut entries: Vec<String> = (0..40).map(|_| synth.fresh_query()).collect();
        // Force duplicates, including across what will be batch boundaries.
        let tiled: Vec<String> = entries.iter().take(20).cloned().collect();
        entries.extend(tiled);
        entries.push("garbage entry".to_string());
        let raw = [RawLog::new("prop", entries)];
        for population in [Population::Unique, Population::Valid] {
            let cached = fused(&raw, population, workers, batch);
            prop_assert_eq!(
                full_report(&cached.corpus),
                full_report(&oracle(&raw, population)),
                "cache differential diverged: {:?}, {} workers, batch {}",
                population, workers, batch
            );
        }
    }

    /// The memoized record equals a fresh analysis for every query the
    /// synthesizer produces — the per-query version of the differential.
    #[test]
    fn memoized_record_equals_fresh_analysis(seed in 0u64..5_000, dataset_idx in 0usize..13) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let cache = AnalysisCache::with_shards(4);
        for _ in 0..8 {
            let text = synth.fresh_query();
            let query = sparqlog::parser::parse_query(&text).expect("synthesized queries parse");
            let fp = sparqlog::parser::canonical_fingerprint_of(&query);
            let memoized = cache.get_or_insert_with(fp, || {
                single_pass(&text).expect("synthesized queries parse")
            });
            let fresh = single_pass(&text).expect("synthesized queries parse");
            prop_assert_eq!(
                format!("{:?}", memoized),
                format!("{fresh:?}"),
                "memoized record diverges for {}", text
            );
        }
    }
}
