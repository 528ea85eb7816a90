//! Multi-threaded determinism: the fused engine must produce identical
//! reports and per-log summaries regardless of worker count, batch size
//! (and therefore batch boundaries), or the racy order in which workers
//! claim batches — and its Table-1 accounting must equal the sequential
//! oracle's.

mod common;

use common::{fused, oracle_logs, slice_readers};
use sparqlog::core::corpus::analyze_streams;
use sparqlog::core::{Population, RawLog};
use sparqlog::synth::{generate_corpus, CorpusConfig};
use std::collections::BTreeMap;

fn corpus_logs() -> Vec<RawLog> {
    let corpus = generate_corpus(CorpusConfig {
        scale: 2e-6,
        seed: 9,
        max_entries_per_dataset: 120,
    });
    corpus
        .logs
        .iter()
        .map(|l| RawLog::new(l.dataset.label(), l.entries.clone()))
        .collect()
}

#[test]
fn analysis_is_identical_across_worker_counts_and_chunk_schedules() {
    let logs = corpus_logs();
    for population in [Population::Unique, Population::Valid] {
        let reference = format!("{:?}", fused(&logs, population, 1, 0).corpus);
        // Every worker count × batch size must reproduce the single-threaded
        // report bit-for-bit; batch sizes of 1 and 7 shuffle the batch
        // boundaries and hand entries of the same log to different workers.
        for workers in [1, 2, 8] {
            for batch in [0, 1, 7, 64] {
                let run = fused(&logs, population, workers, batch);
                assert_eq!(
                    reference,
                    format!("{:?}", run.corpus),
                    "non-deterministic report: {population:?}, {workers} workers, batch {batch}"
                );
            }
        }
        // The racy batch-claim order differs between repeated runs; the
        // report must not.
        for _ in 0..3 {
            let run = fused(&logs, population, 8, 2);
            assert_eq!(reference, format!("{:?}", run.corpus));
        }
    }
}

#[test]
fn parallel_ingestion_is_identical_to_sequential() {
    // The pooled engine's per-log accounting equals the sequential oracle's:
    // the same counts, and the same distinct fingerprints with the same
    // occurrence counts (the oracle's hashed from materialized strings).
    let logs = corpus_logs();
    let sequential = oracle_logs(&logs);
    let parallel = fused(&logs, Population::Unique, 8, 7);
    assert_eq!(parallel.summaries.len(), sequential.len());
    for (p, s) in parallel.summaries.iter().zip(&sequential) {
        assert_eq!(p.counts, s.counts, "{}", p.label);
        let mut occurrences: BTreeMap<u128, u64> = BTreeMap::new();
        for &fingerprint in &s.fingerprints {
            *occurrences.entry(fingerprint).or_insert(0) += 1;
        }
        let expected: Vec<(u128, u64)> = occurrences.into_iter().collect();
        assert_eq!(p.occurrences, expected, "{}", p.label);
        assert_eq!(p.errors, s.errors, "{}", p.label);
    }
}

#[test]
fn streaming_ingestion_is_deterministic_across_schedules() {
    // Worker count and batch size shuffle which worker parses which batch
    // and which worker first sees a fingerprint; the summaries must not
    // move.
    let logs = corpus_logs();
    let reference = fused(&logs, Population::Valid, 1, 0).summaries;
    for workers in [1, 2, 8] {
        for batch in [1, 7, 512] {
            let streamed = fused(&logs, Population::Valid, workers, batch);
            assert_eq!(
                streamed.summaries, reference,
                "workers {workers}, batch {batch}"
            );
        }
    }
}

#[test]
fn shuffled_log_order_only_permutes_dataset_rows() {
    // Reversing the logs permutes the per-dataset rows but must leave each
    // row and the combined totals untouched.
    let logs = corpus_logs();
    let reversed: Vec<RawLog> = logs.iter().rev().cloned().collect();
    let forward = analyze_streams(slice_readers(&logs), Population::Unique)
        .unwrap()
        .corpus;
    let backward = analyze_streams(slice_readers(&reversed), Population::Unique)
        .unwrap()
        .corpus;
    for d in &forward.datasets {
        let twin = backward
            .datasets
            .iter()
            .find(|b| b.label == d.label)
            .expect("every dataset row survives reordering");
        assert_eq!(format!("{d:?}"), format!("{twin:?}"));
    }
    assert_eq!(
        format!("{:?}", forward.combined.counts),
        format!("{:?}", backward.combined.counts)
    );
    assert_eq!(
        format!("{:?}", forward.combined.keywords),
        format!("{:?}", backward.combined.keywords)
    );
}
