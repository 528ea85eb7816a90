//! Incremental (store-aware) ingestion: analyze only the logs a snapshot
//! memo has not seen, and reuse the persisted per-log results for the rest.
//!
//! Every deployment of the engine — in-process, sharded, served —
//! re-analyzes the whole corpus on every run. This module adds the HTAP-style shortcut the
//! ROADMAP's persistent-store item calls for: each log gets a **canonical
//! identity** (a 128-bit FNV-1a over its population, label and raw bytes —
//! computed *before* any parsing, so a hit skips the parse/analyze pipeline
//! entirely), and [`analyze_files_incremental`] consults a [`SnapshotMemo`]
//! by that identity. A **hit** replays the memoized
//! ([`LogSummary`], [`DatasetAnalysis`]) pair; a **miss** runs the fused
//! engine and records the fresh pair back into the memo.
//!
//! The soundness argument is the same one the shard workers rely on:
//! per-log summaries and per-dataset folds never depend on which other logs
//! share the run, so a corpus assembled from any mix of memoized and
//! freshly-analysed logs renders **byte-identical reports** to a cold
//! end-to-end run (`tests/persist.rs` gates this against the fused engine).
//!
//! The memo itself is just a trait: `sparqlog-core` stays storage-agnostic,
//! and the durable implementation (CRC-checked append-only log, commit
//! records, torn-write recovery) lives in the `sparqlog-persist` crate.
//!
//! # Recovery-policy interplay
//!
//! A memoized pair is the *lenient* truth about a log: the tallies are
//! identical under every policy, but [`RecoveryPolicy::Strict`] would have
//! failed the run at the log's first defect instead of producing them. So a
//! hit with a non-empty defect tally is only taken under a policy that
//! recovers; under `Strict` the log is re-analysed, which reproduces the
//! exact strict failure. Budgeted runs stream leniently and meter the
//! budget once over the merged tallies of hits *and* misses — the same
//! single-enforcement-point contract as the shard coordinator and the serve
//! job table.

use crate::analysis::{CorpusAnalysis, DatasetAnalysis, Population};
use crate::fused::{analyze_streams_with, FusedOptions, LogSummary};
use crate::recover::{enforce_budget, ErrorTally, RecoveryPolicy};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// 128-bit FNV-1a offset basis (the same constants as the canonical
/// fingerprint hasher in `sparqlog-parser`).
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// How many bytes [`file_identity`] reads per chunk while hashing a log.
const IDENTITY_CHUNK: usize = 64 * 1024;

/// A persisted per-log analysis: exactly what a shard worker ships per log
/// and what a job slot merges — the unit of reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedLog {
    /// The fused engine's per-log summary (Table-1 counts, fingerprint /
    /// occurrence pairs, error tally).
    pub summary: LogSummary,
    /// The full per-dataset analysis — every tally of the report.
    pub analysis: DatasetAnalysis,
}

/// The storage hook of the incremental path: look a log up by identity,
/// record a fresh analysis under its identity. Implemented by the durable
/// snapshot store in `sparqlog-persist`; an in-memory `HashMap` works for
/// tests.
pub trait SnapshotMemo {
    /// The persisted pair for `key`, if this log was analysed before.
    fn load(&mut self, key: u128) -> Option<PersistedLog>;

    /// Records a freshly analysed log under `key`. Implementations decide
    /// durability (the persist store appends + commits; a map just
    /// inserts).
    fn record(&mut self, key: u128, log: &PersistedLog);
}

/// A [`SnapshotMemo`] that remembers nothing: every log misses, nothing is
/// recorded. [`analyze_files_incremental`] over it is exactly a cold run.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoMemo;

impl SnapshotMemo for NoMemo {
    fn load(&mut self, _key: u128) -> Option<PersistedLog> {
        None
    }
    fn record(&mut self, _key: u128, _log: &PersistedLog) {}
}

/// Hit/miss counters of one incremental run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Logs served from the memo without re-analysis.
    pub hits: u64,
    /// Logs analysed by the fused engine this run (and recorded back).
    pub misses: u64,
}

/// The result of [`analyze_files_incremental`]: per-log summaries and the
/// corpus analysis in input order — the same shape the fused engine
/// produces, rendering the same report bytes — plus the memo counters.
#[derive(Debug, Clone)]
pub struct IncrementalAnalysis {
    /// Per-log summaries, in input order.
    pub summaries: Vec<LogSummary>,
    /// The corpus analysis (per-dataset records + re-merged "Total" row).
    pub corpus: CorpusAnalysis,
    /// How much work the memo absorbed.
    pub stats: MemoStats,
}

/// The canonical identity of a log: 128-bit FNV-1a over the population, the
/// label (length-prefixed, so `("ab", "c")` and `("a", "bc")` differ) and
/// the raw log bytes.
///
/// The population is part of the key because the per-dataset fold weights
/// differ between [`Population::Unique`] and [`Population::Valid`] — one
/// log legitimately has two distinct persisted analyses. The recovery
/// policy is *not* part of the key: tallies are policy-independent, and the
/// policy interplay is handled at lookup time (see the module docs).
pub fn log_identity(population: Population, label: &str, contents: &[u8]) -> u128 {
    let mut state = identity_header(population, label);
    fnv_extend(&mut state, contents);
    state
}

/// [`log_identity`] streamed over a file, in fixed-size chunked reads
/// — hashing never loads the log into memory, so identity computation is
/// cheap even for corpora larger than RAM.
pub fn file_identity(population: Population, label: &str, path: &Path) -> io::Result<u128> {
    let mut state = identity_header(population, label);
    let mut file = std::fs::File::open(path)?;
    let mut chunk = vec![0u8; IDENTITY_CHUNK];
    loop {
        match file.read(&mut chunk) {
            Ok(0) => return Ok(state),
            Ok(n) => fnv_extend(&mut state, &chunk[..n]),
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            Err(error) => return Err(error),
        }
    }
}

fn identity_header(population: Population, label: &str) -> u128 {
    let mut state = FNV_OFFSET;
    fnv_extend(
        &mut state,
        &[match population {
            Population::Unique => 0,
            Population::Valid => 1,
        }],
    );
    fnv_extend(&mut state, &(label.len() as u64).to_le_bytes());
    fnv_extend(&mut state, label.as_bytes());
    state
}

fn fnv_extend(state: &mut u128, bytes: &[u8]) {
    for &byte in bytes {
        *state ^= u128::from(byte);
        *state = state.wrapping_mul(FNV_PRIME);
    }
}

/// Whether a memoized pair may substitute for re-analysis under `policy`:
/// always, except under a strict policy when the log has defects (strict
/// would have failed the run — the re-analysis reproduces that failure).
fn hit_usable(policy: RecoveryPolicy, summary: &LogSummary) -> bool {
    match policy.resolve() {
        RecoveryPolicy::Strict => summary.errors.defects() == 0,
        _ => true,
    }
}

/// Analyses `(label, path)` logs incrementally: logs whose identity the
/// memo knows are served from it; the rest run through the fused engine
/// (one sub-run over all misses) and are recorded back. Reports rendered
/// from the result are byte-identical to a cold fused run over the same
/// files — see the module docs for the argument and `tests/persist.rs` for
/// the gate.
pub fn analyze_files_incremental(
    files: &[(String, PathBuf)],
    population: Population,
    options: FusedOptions,
    memo: &mut dyn SnapshotMemo,
) -> io::Result<IncrementalAnalysis> {
    let policy = options.recovery.resolve();

    // Identity + lookup pass: no parsing, just one hashing read per file.
    let mut slots: Vec<Option<PersistedLog>> = Vec::with_capacity(files.len());
    let mut miss_keys = Vec::new();
    let mut misses: Vec<(usize, &String, &PathBuf)> = Vec::new();
    let mut stats = MemoStats::default();
    for (slot, (label, path)) in files.iter().enumerate() {
        let key = file_identity(population, label, path)?;
        match memo
            .load(key)
            .filter(|hit| hit_usable(policy, &hit.summary))
        {
            Some(hit) => {
                stats.hits += 1;
                slots.push(Some(hit));
            }
            None => {
                stats.misses += 1;
                slots.push(None);
                miss_keys.push(key);
                misses.push((slot, label, path));
            }
        }
    }

    // One fused sub-run over the misses. A budgeted policy streams
    // leniently here — the budget is a whole-run rate over hits and misses
    // together, metered once below (the shard-worker contract).
    if !misses.is_empty() {
        let readers = misses
            .iter()
            .map(|(_, label, path)| {
                crate::corpus::FileLogReader::open((*label).clone(), path)
                    .map(|reader| Box::new(reader) as Box<dyn crate::corpus::LogReader>)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let fused = analyze_streams_with(
            readers,
            population,
            FusedOptions {
                recovery: match policy {
                    RecoveryPolicy::ErrorBudget { .. } => RecoveryPolicy::Lenient,
                    other => other,
                },
                ..options
            },
        )?;
        let pairs = fused
            .summaries
            .into_iter()
            .zip(fused.corpus.datasets)
            .zip(miss_keys);
        for (((summary, analysis), key), (slot, _, _)) in pairs.zip(&misses) {
            let log = PersistedLog { summary, analysis };
            memo.record(key, &log);
            slots[*slot] = Some(log);
        }
    }

    // Assemble in input order and re-merge the "Total" row — the same
    // commutative merge the serve job table uses, which is byte-identical
    // to the fused engine's own combined row.
    let logs: Vec<PersistedLog> = slots
        .into_iter()
        .map(|slot| slot.expect("every slot is a hit or a recorded miss"))
        .collect();
    let mut combined = DatasetAnalysis {
        label: "Total".to_string(),
        ..DatasetAnalysis::default()
    };
    let mut tally = ErrorTally::default();
    let mut entries = 0u64;
    for log in &logs {
        combined.merge(&log.analysis);
        tally.merge(&log.summary.errors);
        entries += log.summary.counts.total;
    }
    // The single budget-enforcement point over the whole (hit + miss) run.
    enforce_budget(policy, &tally, entries)?;

    let mut summaries = Vec::with_capacity(logs.len());
    let mut datasets = Vec::with_capacity(logs.len());
    for log in logs {
        summaries.push(log.summary);
        datasets.push(log.analysis);
    }
    Ok(IncrementalAnalysis {
        summaries,
        corpus: CorpusAnalysis { datasets, combined },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::full_report;
    use std::collections::HashMap;
    use std::io::Write as _;

    #[derive(Default)]
    struct MapMemo {
        map: HashMap<u128, PersistedLog>,
        loads: u64,
        records: u64,
    }

    impl SnapshotMemo for MapMemo {
        fn load(&mut self, key: u128) -> Option<PersistedLog> {
            self.loads += 1;
            self.map.get(&key).cloned()
        }
        fn record(&mut self, key: u128, log: &PersistedLog) {
            self.records += 1;
            self.map.insert(key, log.clone());
        }
    }

    fn write_logs(dir: &Path, logs: &[(&str, &[&str])]) -> Vec<(String, PathBuf)> {
        logs.iter()
            .enumerate()
            .map(|(index, (label, entries))| {
                let path = dir.join(format!("{index}.log"));
                let mut file = std::fs::File::create(&path).unwrap();
                for entry in *entries {
                    writeln!(file, "{entry}").unwrap();
                }
                (label.to_string(), path)
            })
            .collect()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-incremental-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CLEAN: [&str; 3] = [
        "SELECT ?x WHERE { ?x a <http://C> }",
        "ASK { <http://s> <http://p> <http://o> }",
        "DESCRIBE <http://r>",
    ];

    #[test]
    fn identities_separate_population_label_and_content() {
        let id = log_identity(Population::Unique, "a", b"xyz");
        assert_ne!(id, log_identity(Population::Valid, "a", b"xyz"));
        assert_ne!(id, log_identity(Population::Unique, "b", b"xyz"));
        assert_ne!(id, log_identity(Population::Unique, "a", b"xyw"));
        // Length-prefixed label: shifting bytes between label and content
        // changes the key.
        assert_ne!(
            log_identity(Population::Unique, "ab", b"c"),
            log_identity(Population::Unique, "a", b"bc")
        );
    }

    #[test]
    fn file_identity_matches_in_memory_identity() {
        let dir = scratch("file-id");
        let path = dir.join("log");
        std::fs::write(&path, b"some log bytes\nmore\n").unwrap();
        assert_eq!(
            file_identity(Population::Unique, "lbl", &path).unwrap(),
            log_identity(Population::Unique, "lbl", b"some log bytes\nmore\n")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_runs_skip_analysis_and_render_identical_reports() {
        let dir = scratch("warm");
        let files = write_logs(&dir, &[("alpha", &CLEAN), ("beta", &CLEAN[..2])]);
        let mut memo = MapMemo::default();

        let cold = analyze_files_incremental(
            &files,
            Population::Unique,
            FusedOptions::default(),
            &mut memo,
        )
        .unwrap();
        assert_eq!(cold.stats, MemoStats { hits: 0, misses: 2 });
        assert_eq!(memo.records, 2);

        let warm = analyze_files_incremental(
            &files,
            Population::Unique,
            FusedOptions::default(),
            &mut memo,
        )
        .unwrap();
        assert_eq!(warm.stats, MemoStats { hits: 2, misses: 0 });
        assert_eq!(memo.records, 2, "a warm run records nothing new");
        assert_eq!(full_report(&warm.corpus), full_report(&cold.corpus));
        assert_eq!(warm.summaries, cold.summaries);

        // And both match a cold fused run exactly (the no-memo reference).
        let reference = analyze_files_incremental(
            &files,
            Population::Unique,
            FusedOptions::default(),
            &mut NoMemo,
        )
        .unwrap();
        assert_eq!(full_report(&reference.corpus), full_report(&cold.corpus));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_changed_file_misses_and_only_it_reanalyzes() {
        let dir = scratch("changed");
        let files = write_logs(&dir, &[("alpha", &CLEAN), ("beta", &CLEAN[..2])]);
        let mut memo = MapMemo::default();
        analyze_files_incremental(
            &files,
            Population::Unique,
            FusedOptions::default(),
            &mut memo,
        )
        .unwrap();

        // Append an entry to beta: alpha stays a hit, beta re-analyzes.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&files[1].1)
            .unwrap();
        writeln!(file, "SELECT ?y WHERE {{ ?y a <http://D> }}").unwrap();
        drop(file);
        let second = analyze_files_incremental(
            &files,
            Population::Unique,
            FusedOptions::default(),
            &mut memo,
        )
        .unwrap();
        assert_eq!(second.stats, MemoStats { hits: 1, misses: 1 });
        assert_eq!(second.summaries[1].counts.total, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_policy_refuses_defective_hits_and_reproduces_the_failure() {
        let dir = scratch("strict");
        // An invalid-UTF-8 line is a *defect* (not mere invalidity).
        let path = dir.join("dirty.log");
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(b"SELECT ?x WHERE { ?x a <http://C> }\n\xFF\xFE\n")
            .unwrap();
        drop(file);
        let files = vec![("dirty".to_string(), path)];

        // Lenient cold run persists the (defective) tally.
        let mut memo = MapMemo::default();
        let lenient = |memo: &mut MapMemo| {
            analyze_files_incremental(
                &files,
                Population::Unique,
                FusedOptions {
                    recovery: RecoveryPolicy::Lenient,
                    ..FusedOptions::default()
                },
                memo,
            )
        };
        let cold = lenient(&mut memo).unwrap();
        assert_eq!(cold.summaries[0].errors.defects(), 1);

        // A strict warm run must NOT serve the hit: it re-analyses and
        // fails exactly like a cold strict run would.
        let strict = analyze_files_incremental(
            &files,
            Population::Unique,
            FusedOptions {
                recovery: RecoveryPolicy::Strict,
                ..FusedOptions::default()
            },
            &mut memo,
        );
        assert!(strict.is_err());

        // A lenient warm run still hits.
        let warm = lenient(&mut memo).unwrap();
        assert_eq!(warm.stats, MemoStats { hits: 1, misses: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_is_metered_over_hits_and_misses_together() {
        let dir = scratch("budget");
        let path = dir.join("dirty.log");
        let mut file = std::fs::File::create(&path).unwrap();
        // 1 defect in 2 entries: 5000 per 10k.
        file.write_all(b"SELECT ?x WHERE { ?x a <http://C> }\n\xFF\xFE\n")
            .unwrap();
        drop(file);
        let files = vec![("dirty".to_string(), path)];
        let mut memo = MapMemo::default();
        let run = |memo: &mut MapMemo, max_per_10k| {
            analyze_files_incremental(
                &files,
                Population::Unique,
                FusedOptions {
                    recovery: RecoveryPolicy::ErrorBudget { max_per_10k },
                    ..FusedOptions::default()
                },
                memo,
            )
        };
        // Generous budget: cold run persists.
        run(&mut memo, 9_000).unwrap();
        // Tight budget on a warm run: the hit is taken, but the budget is
        // still enforced over the merged tallies — the run fails.
        assert!(run(&mut memo, 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
