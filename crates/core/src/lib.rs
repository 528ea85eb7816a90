//! # sparqlog-core
//!
//! The corpus pipeline and report drivers of the `sparqlog` toolkit — the
//! primary contribution of *"An Analytical Study of Large SPARQL Query
//! Logs"* (Bonifati–Martens–Timm, VLDB 2017) turned into a reusable library:
//!
//! * [`fused`] — the one production engine, fused ingest→analyze
//!   ([`fused::analyze_streams`]): each batch is parsed, fingerprinted and
//!   analysed in one worker pool, duplicates fold occurrence-weighted, and
//!   no query AST outlives its batch.
//! * [`corpus`] — the streaming [`corpus::LogReader`]s the engine reads,
//!   the Table-1 accounting, and [`corpus::ingest`], the materializing half
//!   of the test oracle.
//! * [`incremental`] — store-aware ingestion: logs are keyed by a
//!   canonical identity (population + label + raw bytes) and served from a
//!   [`incremental::SnapshotMemo`] when already analysed — cold ingest
//!   once, warm re-serve forever, byte-identical reports either way.
//! * [`query_analysis`] — the single-pass per-query intermediate
//!   ([`QueryAnalysis`]): one AST traversal and one canonical-graph
//!   construction feed every measure.
//! * [`cache`] — the sharded, fingerprint-keyed [`cache::AnalysisCache`]:
//!   each distinct canonical form is analysed once per corpus run and
//!   duplicate occurrences fold the memoized record.
//! * [`analysis`] — the per-dataset / corpus-level analysis record combining
//!   the shallow, structural, property-path and width analyses of the paper.
//! * [`baseline`] — the seed multi-walk analysis,
//!   [`baseline::analyze_multiwalk`]: with [`corpus::ingest`] it is the one
//!   independent oracle the differential tests and harness gates compare
//!   the fused engine with.
//! * [`recover`] — the malformed-input error model: the stable
//!   [`ErrorKind`] taxonomy, the per-log [`ErrorTally`], and the
//!   [`RecoveryPolicy`] (strict / lenient / error-budget) every engine
//!   honours identically.
//! * [`report`] — plain-text renderers, one per table and figure.
//!
//! ```
//! use sparqlog_core::corpus::{LogReader, MemoryLogReader};
//! use sparqlog_core::{analyze_streams, report, Population};
//!
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "example",
//!     vec!["SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string()],
//! ))];
//! let fused = analyze_streams(readers, Population::Unique)?;
//! println!("{}", report::table1(&fused.corpus));
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Dirty logs are first-class: in Lenient mode every malformed entry —
//! unparseable, invalid UTF-8, oversize, too deeply nested, even one that
//! panics the analyzer — is recovered and tallied per log, and a non-empty
//! tally appends an error table to the full report:
//!
//! ```
//! use sparqlog_core::corpus::{MemoryLogReader, LogReader};
//! use sparqlog_core::{analyze_streams_with, report, ErrorKind, FusedOptions, Population,
//!     RecoveryPolicy};
//!
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "dirty",
//!     vec![
//!         "SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string(),
//!         "SELECT ?x WHERE { ?x <http://p> \"unterminated".to_string(),
//!     ],
//! ))];
//! let fused = analyze_streams_with(
//!     readers,
//!     Population::Unique,
//!     FusedOptions { recovery: RecoveryPolicy::Lenient, ..FusedOptions::default() },
//! )?;
//! let tally = &fused.summaries[0].errors;
//! assert_eq!(tally.count(ErrorKind::Lex), 1);
//! assert!(report::full_report(&fused.corpus).contains("first errors: lex@1"));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod cache;
pub mod corpus;
pub mod fused;
pub mod incremental;
pub mod query_analysis;
pub mod recover;
pub mod report;

pub use analysis::{AnalysisStats, CorpusAnalysis, DatasetAnalysis, Population};
pub use cache::{AnalysisCache, CacheStats};
pub use corpus::{
    default_workers, ingest, CorpusCounts, FileLogReader, IngestedLog, LineLogReader, LogReader,
    MemoryLogReader, RawLog, SliceLogReader,
};
pub use fused::{
    analyze_streams, analyze_streams_cached, analyze_streams_with, FusedAnalysis, FusedOptions,
    FusedStats, LogSummary,
};
pub use incremental::{
    analyze_files_incremental, file_identity, log_identity, IncrementalAnalysis, MemoStats,
    PersistedLog, SnapshotMemo,
};
pub use query_analysis::QueryAnalysis;
pub use recover::{BudgetExceeded, ErrorTally, ReaderDefect, RecoveryPolicy};
pub use sparqlog_parser::ErrorKind;
