//! Helpers shared by the integration tests: the fused engine over borrowed
//! raw logs, and the one independent oracle it is compared with — the
//! materializing `ingest` followed by the seed multi-walk
//! `analyze_multiwalk`.

// Each test binary compiles this module on its own and uses a subset.
#![allow(dead_code)]

use sparqlog::core::analysis::{CorpusAnalysis, Population};
use sparqlog::core::baseline::analyze_multiwalk;
use sparqlog::core::corpus::{
    analyze_streams_with, ingest, FusedAnalysis, FusedOptions, IngestedLog, LineLogReader,
    LogReader, RawLog, SliceLogReader,
};
use sparqlog::core::report::full_report;
use sparqlog::core::{ErrorTally, QueryAnalysis, RecoveryPolicy};
use sparqlog::parser::intern::Interner;
use sparqlog::parser::{parse_query_in, Arena};

/// One [`SliceLogReader`] per raw log.
pub fn slice_readers(logs: &[RawLog]) -> Vec<Box<dyn LogReader + '_>> {
    logs.iter()
        .map(|log| Box::new(SliceLogReader::of(log)) as Box<dyn LogReader + '_>)
        .collect()
}

/// The fused engine over borrowed raw logs (`0` picks a default), in
/// Lenient mode so every malformed entry is tallied.
pub fn fused(
    logs: &[RawLog],
    population: Population,
    workers: usize,
    batch: usize,
) -> FusedAnalysis {
    analyze_streams_with(
        slice_readers(logs),
        population,
        FusedOptions {
            workers,
            batch,
            recovery: RecoveryPolicy::Lenient,
        },
    )
    .expect("lenient in-memory streams cannot fail")
}

/// The oracle's ingested logs.
pub fn oracle_logs(logs: &[RawLog]) -> Vec<IngestedLog> {
    logs.iter().map(ingest).collect()
}

/// The oracle's corpus analysis.
pub fn oracle(logs: &[RawLog], population: Population) -> CorpusAnalysis {
    analyze_multiwalk(&oracle_logs(logs), population)
}

/// The fused engine's per-query record of one query text (arena parse,
/// fresh interner), or `None` when the text does not parse.
pub fn single_pass(text: &str) -> Option<QueryAnalysis> {
    let arena = Arena::new();
    let query = parse_query_in(text, &arena).ok()?;
    Some(QueryAnalysis::of_ref(&query, &mut Interner::new()))
}

/// Splits raw log bytes into entries exactly as the fused engine's line
/// reader does. The oracle takes `String` entries, so a line that is not
/// valid UTF-8 becomes an empty entry: the oracle counts it as a syntax
/// error where the engine tallies an invalid-UTF-8 defect, at the same
/// position. Returns the entries and how many lines were replaced.
pub fn line_entries(bytes: &[u8]) -> (Vec<String>, usize) {
    let mut reader = LineLogReader::new("oracle", bytes);
    let mut entries = Vec::new();
    let mut replaced = 0;
    loop {
        match reader.read_batch(&mut entries, usize::MAX) {
            Ok(0) => return (entries, replaced),
            Ok(_) => {}
            Err(_) => {
                entries.push(String::new());
                replaced += 1;
            }
        }
    }
}

/// The analysis with every error tally cleared, for comparing runs whose
/// tallies differ only in how an invalid-UTF-8 line was classified.
pub fn without_error_tallies(corpus: &CorpusAnalysis) -> CorpusAnalysis {
    let mut corpus = corpus.clone();
    for dataset in corpus.datasets.iter_mut() {
        dataset.errors = Default::default();
    }
    corpus.combined.errors = Default::default();
    corpus
}

/// Asserts that the oracle, fed the same log bytes split by
/// [`line_entries`], agrees with a Lenient fused run over those logs: the
/// same Table-1 counts, the same error positions and totals, and the same
/// report. Where a line is not valid UTF-8 the oracle classifies it
/// differently, so the tallies' kinds are excluded from the comparison.
pub fn assert_oracle_agrees(logs: &[(&str, &[u8])], population: Population, run: &FusedAnalysis) {
    let mut replaced = 0;
    let raw: Vec<RawLog> = logs
        .iter()
        .map(|&(label, bytes)| {
            let (entries, lines) = line_entries(bytes);
            replaced += lines;
            RawLog::new(label, entries)
        })
        .collect();
    let positions =
        |tally: &ErrorTally| -> Vec<u64> { tally.exemplars.iter().map(|&(_, p)| p).collect() };
    let logs = oracle_logs(&raw);
    for (oracle_log, summary) in logs.iter().zip(&run.summaries) {
        assert_eq!(oracle_log.counts, summary.counts, "oracle counts");
        assert_eq!(oracle_log.errors.total(), summary.errors.total(), "oracle");
        assert_eq!(positions(&oracle_log.errors), positions(&summary.errors));
    }
    let oracle_corpus = analyze_multiwalk(&logs, population);
    if replaced == 0 {
        assert_eq!(
            full_report(&oracle_corpus),
            full_report(&run.corpus),
            "oracle"
        );
    } else {
        assert_eq!(
            full_report(&without_error_tallies(&oracle_corpus)),
            full_report(&without_error_tallies(&run.corpus)),
            "oracle"
        );
    }
}
