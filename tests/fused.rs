//! The fused ingest→analyze streaming engine: differential proof that
//! `analyze_streams` renders corpus reports byte-identical to the oracle
//! (the materializing `ingest` + the seed multi-walk `analyze_multiwalk`) —
//! over synthesized corpora, worker counts 1/2/8, batch sizes that force
//! duplicates to straddle batch boundaries, both populations, degenerate
//! inputs (no logs, empty logs, all-invalid logs, one entry), a shared
//! cache surviving the population switch, cache shard boundaries, and
//! file-backed streams — plus the occurrence-weighted fold's equivalence to
//! repeated folds.

mod common;

use common::{fused, oracle, oracle_logs, single_pass};
use proptest::prelude::*;
use sparqlog::core::cache::AnalysisCache;
use sparqlog::core::corpus::{
    analyze_streams, analyze_streams_cached, ingest, FileLogReader, FusedOptions, LogReader,
    MemoryLogReader, RawLog,
};
use sparqlog::core::report::full_report;
use sparqlog::core::{DatasetAnalysis, Population};
use sparqlog::synth::{generate_single_day_log, Dataset, DatasetProfile, Synthesizer};

fn memory_readers(logs: &[RawLog]) -> Vec<Box<dyn LogReader + 'static>> {
    logs.iter()
        .map(|log| {
            Box::new(MemoryLogReader::new(log.label.clone(), log.entries.clone()))
                as Box<dyn LogReader + 'static>
        })
        .collect()
}

/// A fixed duplicate-heavy corpus: three synthesized day logs, each tiled
/// three times, with cross-log duplicates (the first log's head is appended
/// to the last).
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
    let head: Vec<String> = raw[0].entries.iter().take(30).cloned().collect();
    raw[2].entries.extend(head);
    raw
}

/// Asserts the fused engine equals the oracle on `raw` at every worker
/// count and batch size of the matrix, on both populations: the rendered
/// report, the per-log Table-1 counts and the error tallies.
fn assert_matches_oracle(raw: &[RawLog], workers: &[usize], batches: &[usize]) {
    let oracle_logs = oracle_logs(raw);
    for population in [Population::Unique, Population::Valid] {
        let oracle_report = full_report(&oracle(raw, population));
        for &workers in workers {
            for &batch in batches {
                let run = fused(raw, population, workers, batch);
                assert_eq!(
                    full_report(&run.corpus),
                    oracle_report,
                    "fused vs oracle diverged: {population:?}, {workers} workers, batch {batch}"
                );
                assert_eq!(run.summaries.len(), oracle_logs.len());
                for (summary, oracle_log) in run.summaries.iter().zip(&oracle_logs) {
                    assert_eq!(summary.label, oracle_log.label);
                    assert_eq!(summary.counts, oracle_log.counts);
                    assert_eq!(summary.errors, oracle_log.errors);
                    let occurrence_total: u64 =
                        summary.occurrences.iter().map(|&(_, count)| count).sum();
                    assert_eq!(occurrence_total, summary.counts.valid);
                    assert_eq!(summary.occurrences.len() as u64, summary.counts.unique);
                }
            }
        }
    }
}

#[test]
fn fused_matches_the_oracle_on_the_fixed_corpus_across_workers_and_batches() {
    // Batch 7 splits the tiled logs mid-repeat, so duplicates of one
    // canonical form land in different batches (and, at >1 workers, in
    // different workers' occurrence maps).
    assert_matches_oracle(&duplicate_heavy_corpus(), &[1, 2, 8], &[0, 7]);
}

#[test]
fn fused_matches_the_oracle_on_empty_invalid_and_one_entry_inputs() {
    let invalid = || {
        RawLog::new(
            "invalid",
            vec![
                String::new(),
                "not sparql".to_string(),
                "SELECT ?x WHERE { ?x <http://p> \"unterminated".to_string(),
            ],
        )
    };
    let one = || {
        RawLog::new(
            "one",
            vec!["SELECT ?x WHERE { ?x <http://p> ?y }".to_string()],
        )
    };
    let inputs: [Vec<RawLog>; 5] = [
        vec![],
        vec![RawLog::new("empty", vec![])],
        vec![invalid()],
        vec![one()],
        vec![RawLog::new("empty", vec![]), invalid(), one()],
    ];
    for raw in &inputs {
        assert_matches_oracle(raw, &[1, 2, 8], &[1, 512]);
    }
}

#[test]
fn shared_cache_survives_the_population_switch_without_reanalysing() {
    let raw = duplicate_heavy_corpus();
    let cache = AnalysisCache::new();
    let valid = analyze_streams_cached(
        memory_readers(&raw),
        Population::Valid,
        FusedOptions::default(),
        &cache,
    )
    .unwrap();
    let after_valid = cache.stats();
    let unique = analyze_streams_cached(
        memory_readers(&raw),
        Population::Unique,
        FusedOptions::default(),
        &cache,
    )
    .unwrap();
    let after_unique = cache.stats();
    // The switch re-streams the corpus but every canonical form is already
    // memoized: no new analyses, no new distinct entries.
    assert_eq!(after_valid.misses, after_unique.misses);
    assert_eq!(after_valid.distinct, after_unique.distinct);
    assert!(after_unique.hits > after_valid.hits);
    // Both runs agree with the oracle.
    assert_eq!(
        full_report(&valid.corpus),
        full_report(&oracle(&raw, Population::Valid))
    );
    assert_eq!(
        full_report(&unique.corpus),
        full_report(&oracle(&raw, Population::Unique))
    );
}

#[test]
fn cache_shard_boundaries_do_not_change_the_fused_report() {
    let raw = duplicate_heavy_corpus();
    let single = AnalysisCache::with_shards(1);
    let many = AnalysisCache::with_shards(64);
    let mut reports = Vec::new();
    for cache in [&single, &many] {
        let fused = analyze_streams_cached(
            memory_readers(&raw),
            Population::Valid,
            FusedOptions {
                workers: 2,
                batch: 16,
                recovery: Default::default(),
            },
            cache,
        )
        .unwrap();
        reports.push(full_report(&fused.corpus));
    }
    assert_eq!(reports[0], reports[1]);
    assert_eq!(single.len(), many.len());
    // Occurrence accounting covers every valid entry on both shardings.
    let lookups: u64 = oracle_logs(&raw).iter().map(|l| l.counts.valid).sum();
    for cache in [&single, &many] {
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
    }
}

#[test]
fn file_backed_streams_match_in_memory_streams() {
    let raw = duplicate_heavy_corpus();
    let dir = std::env::temp_dir().join(format!("sparqlog-fused-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut file_readers: Vec<Box<dyn LogReader + 'static>> = Vec::new();
    for (index, log) in raw.iter().enumerate() {
        let path = dir.join(format!("{index}.log"));
        // CRLF terminators and a missing trailing newline exercise the
        // word-at-a-time line scanner's edge cases end to end.
        let mut bytes = log.entries.join("\r\n").into_bytes();
        if index == 0 {
            bytes.extend_from_slice(b"\r\n");
        }
        std::fs::write(&path, bytes).unwrap();
        file_readers.push(Box::new(
            FileLogReader::open(log.label.clone(), &path).unwrap(),
        ));
    }
    let from_files = analyze_streams(file_readers, Population::Valid).unwrap();
    let from_memory = analyze_streams(memory_readers(&raw), Population::Valid).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(from_files.summaries, from_memory.summaries);
    assert_eq!(
        full_report(&from_files.corpus),
        full_report(&from_memory.corpus)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fused and oracle reports agree on any synthesized corpus, for any
    /// worker count and batch size, on both populations.
    #[test]
    fn fused_reports_match_the_oracle_on_synthesized_corpora(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        workers in 1usize..9,
        batch in 1usize..24,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut entries: Vec<String> = (0..40).map(|_| synth.fresh_query()).collect();
        // Force duplicates, including across what will be batch boundaries.
        let tiled: Vec<String> = entries.iter().take(20).cloned().collect();
        entries.extend(tiled);
        entries.push("garbage entry".to_string());
        let raw = vec![RawLog::new("prop", entries)];
        let oracle_log = ingest(&raw[0]);
        for population in [Population::Unique, Population::Valid] {
            let run = fused(&raw, population, workers, batch);
            prop_assert_eq!(
                full_report(&run.corpus),
                full_report(&oracle(&raw, population)),
                "fused differential diverged: {:?}, {} workers, batch {}",
                population, workers, batch
            );
            prop_assert_eq!(run.summaries[0].counts, oracle_log.counts);
        }
    }

    /// The occurrence-weighted fold equals repeated folds, query by query:
    /// `add_times(qa, n)` must match `n` calls to `add(qa)` bit for bit.
    #[test]
    fn weighted_fold_equals_repeated_folds(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        times in 0u64..12,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        for _ in 0..4 {
            let text = synth.fresh_query();
            let qa = single_pass(&text).expect("synthesized queries parse");
            let mut weighted = DatasetAnalysis::default();
            weighted.add_times(&qa, times);
            let mut repeated = DatasetAnalysis::default();
            for _ in 0..times {
                repeated.add(&qa);
            }
            prop_assert_eq!(
                format!("{weighted:?}"),
                format!("{repeated:?}"),
                "weighted fold diverges for {} x {}", times, text
            );
        }
    }

    /// The per-log summary's first-occurrence accounting matches the
    /// sequential reference ingest for any entry mix.
    #[test]
    fn summary_counts_match_sequential_ingest(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        batch in 1usize..16,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut entries: Vec<String> = (0..24).map(|_| synth.fresh_query()).collect();
        entries.push(String::new());
        entries.push("DESCRIBE <http://r>".to_string());
        entries.extend(entries.clone());
        let raw = RawLog::new("prop", entries);
        let run = fused(std::slice::from_ref(&raw), Population::Unique, 3, batch);
        let reference = ingest(&raw);
        prop_assert_eq!(run.summaries[0].counts, reference.counts);
    }
}
