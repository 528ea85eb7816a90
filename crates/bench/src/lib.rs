//! # sparqlog-bench
//!
//! The benchmark harness of the `sparqlog` workspace. It contains
//!
//! * one **binary per table / figure** of the paper (in `src/bin/`), each of
//!   which regenerates the corresponding rows from a synthetic corpus or from
//!   the engine experiment, and
//! * **criterion micro-benchmarks** (in `benches/`) for the hot kernels:
//!   parsing, shape classification, hypertree decomposition, the two join
//!   engines, Levenshtein distance and corpus synthesis.
//!
//! This library crate hosts the shared plumbing: command-line options and the
//! corpus construction used by all harness binaries.

// `forbid` everywhere except when the `alloc-stats` feature compiles the
// counting global allocator in `alloc_stats` (a `GlobalAlloc` impl is
// inherently unsafe); the rest of the crate stays `deny`-checked.
#![cfg_attr(not(feature = "alloc-stats"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_stats;
pub mod gate;

use sparqlog_core::analysis::{AnalysisStats, CorpusAnalysis, Population};
use sparqlog_core::baseline::analyze_multiwalk;
use sparqlog_core::corpus::{
    analyze_streams, ingest, FileLogReader, IngestedLog, LogReader, MemoryLogReader, RawLog,
};
use sparqlog_synth::{generate_corpus, CorpusConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Common options for the harness binaries, parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Corpus scale factor relative to the real Table-1 sizes.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Analyse the valid population (with duplicates) instead of the unique
    /// one — reproduces the appendix variants (Tables 7–9, Figures 8–10).
    pub valid_population: bool,
    /// Cap on entries per dataset (0 = none).
    pub cap: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 2e-5,
            seed: 42,
            valid_population: false,
            cap: 0,
        }
    }
}

impl HarnessOptions {
    /// Parses options from `std::env::args`; see [`HarnessOptions::parse`].
    /// A known flag with a missing or unparsable value prints the parse
    /// error and exits with status 2.
    pub fn from_args() -> HarnessOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        HarnessOptions::parse(&args).unwrap_or_else(|error| {
            eprintln!("error: {error}");
            std::process::exit(2);
        })
    }

    /// Parses options from command-line arguments (program name excluded).
    /// Recognised flags: `--scale <f64>`, `--seed <u64>`, `--cap <u64>`,
    /// `--valid`. Unknown arguments are skipped, so binaries can parse
    /// flags of their own from the same list. A recognised flag whose value
    /// is missing or does not parse is an error naming the flag and value.
    pub fn parse(args: &[String]) -> Result<HarnessOptions, String> {
        fn value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
            let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("invalid value {value:?} for {flag}"))
        }
        let mut opts = HarnessOptions::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = value(arg, args.next())?,
                "--seed" => opts.seed = value(arg, args.next())?,
                "--cap" => opts.cap = value(arg, args.next())?,
                "--valid" => opts.valid_population = true,
                _ => {}
            }
        }
        Ok(opts)
    }

    /// The population selected by the options.
    pub fn population(&self) -> Population {
        if self.valid_population {
            Population::Valid
        } else {
            Population::Unique
        }
    }
}

/// Generates the synthetic corpus as raw logs.
pub fn raw_corpus(opts: &HarnessOptions) -> Vec<RawLog> {
    let corpus = generate_corpus(CorpusConfig {
        scale: opts.scale,
        seed: opts.seed,
        max_entries_per_dataset: opts.cap,
    });
    corpus
        .logs
        .into_iter()
        .map(|l| RawLog::new(l.dataset.label(), l.entries))
        .collect()
}

/// Wraps raw logs in [`MemoryLogReader`]s: the entries are moved into the
/// readers and drained batch by batch, so the raw corpus is never duplicated
/// and shrinks as the pipeline progresses.
pub fn corpus_readers(raw: Vec<RawLog>) -> Vec<Box<dyn LogReader + 'static>> {
    raw.into_iter()
        .map(|log| {
            Box::new(MemoryLogReader::new(log.label, log.entries)) as Box<dyn LogReader + 'static>
        })
        .collect()
}

/// Writes a duplicate-heavy corpus to one temp log file per dataset — each
/// log's entries tiled `tile` times, so every query occurs at least that
/// often, matching the duplication regime the source paper reports for real
/// logs. Returns `(label, path)` pairs plus the total entry count. Shared by
/// the file-streaming ablations (`ablation_fused`, `ablation_shard`).
pub fn write_corpus_files(
    opts: &HarnessOptions,
    dir: &Path,
    tile: usize,
) -> (Vec<(String, PathBuf)>, u64) {
    let mut files = Vec::new();
    let mut total = 0u64;
    for (index, log) in raw_corpus(opts).into_iter().enumerate() {
        // Labels are display strings (may contain `/` or spaces); the file
        // name only needs to be unique — the label rides in the reader.
        let stem: String = log
            .label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{index:02}-{stem}.log"));
        let file = std::fs::File::create(&path).expect("create temp log file");
        let mut writer = std::io::BufWriter::new(file);
        for _ in 0..tile {
            for entry in &log.entries {
                // Synthesized queries are single-line; keep the invariant
                // explicit for one-entry-per-line streaming.
                debug_assert!(!entry.contains('\n'));
                writeln!(writer, "{entry}").expect("write temp log line");
            }
        }
        writer.flush().expect("flush temp log");
        total += (log.entries.len() * tile) as u64;
        files.push((log.label, path));
    }
    (files, total)
}

/// Opens [`FileLogReader`]s over the `(label, path)` pairs produced by
/// [`write_corpus_files`].
pub fn open_file_readers(files: &[(String, PathBuf)]) -> Vec<Box<dyn LogReader + 'static>> {
    files
        .iter()
        .map(|(label, path)| {
            Box::new(FileLogReader::open(label.clone(), path).expect("open temp log"))
                as Box<dyn LogReader + 'static>
        })
        .collect()
}

/// Generates the synthetic corpus and ingests it through the test oracle's
/// materializing path ([`ingest`]: every valid query's owned AST stays
/// resident) — the input of the multi-walk baselines.
pub fn build_corpus(opts: &HarnessOptions) -> Vec<IngestedLog> {
    raw_corpus(opts).iter().map(ingest).collect()
}

/// The test oracle's corpus analysis of raw logs: the materializing
/// [`ingest`] followed by the seed multi-walk [`analyze_multiwalk`]. The
/// harness gates compare the fused engine's reports with it byte for byte.
pub fn oracle_corpus(raw: &[RawLog], population: Population) -> CorpusAnalysis {
    let logs: Vec<IngestedLog> = raw.iter().map(ingest).collect();
    analyze_multiwalk(&logs, population)
}

/// Generates, ingests and analyses the synthetic corpus in one call on the
/// fused ingest→analyze engine — the entry point shared by most harness
/// binaries.
pub fn analyzed_corpus(opts: &HarnessOptions) -> CorpusAnalysis {
    analyzed_corpus_stats(opts).0
}

/// [`analyzed_corpus`] returning the run's cache / interner counters too, so
/// harness binaries can print the [`stats_banner`] under their headline.
pub fn analyzed_corpus_stats(opts: &HarnessOptions) -> (CorpusAnalysis, AnalysisStats) {
    let fused = analyze_streams(corpus_readers(raw_corpus(opts)), opts.population())
        .expect("in-memory streams cannot fail");
    (fused.corpus, fused.stats)
}

/// Prints the standard harness banner describing the run.
pub fn banner(what: &str, opts: &HarnessOptions) {
    println!("== sparqlog :: {what} ==");
    println!(
        "synthetic corpus, scale {:.0e} of Table-1 sizes, seed {}, population: {}, workers: {}",
        opts.scale,
        opts.seed,
        if opts.valid_population {
            "Valid (with duplicates)"
        } else {
            "Unique"
        },
        sparqlog_core::default_workers()
    );
    println!();
}

/// Renders the analysis-run counters as a banner line: what the
/// fingerprint-keyed analysis cache absorbed and what the per-worker term
/// interners saved.
pub fn stats_banner(stats: &AnalysisStats) -> String {
    let mut out = String::new();
    match &stats.cache {
        Some(cache) => {
            out.push_str(&format!(
                "analysis cache: {} hits / {} misses ({:.1}% hit rate), {} distinct forms",
                cache.hits,
                cache.misses,
                cache.hit_rate() * 100.0,
                cache.distinct,
            ));
        }
        None => out.push_str("analysis cache: disabled"),
    }
    let interner = &stats.interner;
    out.push_str(&format!(
        "\nterm interner: {} lookups, {:.1}% hits, {} string bytes saved ({} stored)",
        interner.lookups,
        interner.hit_rate() * 100.0,
        interner.bytes_saved,
        interner.bytes_interned,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_build_a_small_corpus() {
        let opts = HarnessOptions {
            scale: 1e-6,
            cap: 50,
            ..HarnessOptions::default()
        };
        let logs = build_corpus(&opts);
        assert_eq!(logs.len(), 13);
        assert!(logs.iter().all(|l| l.counts.total > 0));
    }

    #[test]
    fn analysis_runs_end_to_end() {
        let opts = HarnessOptions {
            scale: 1e-6,
            cap: 40,
            ..HarnessOptions::default()
        };
        let corpus = analyzed_corpus(&opts);
        assert_eq!(corpus.datasets.len(), 13);
        assert!(corpus.combined.keywords.total_queries > 0);
    }

    #[test]
    fn flag_values_parse_or_fail_naming_the_flag() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let opts = HarnessOptions::parse(&args(&[
            "--scale", "1e-3", "--fault", "die", "--seed", "7", "--valid", "--cap", "10",
        ]))
        .unwrap();
        assert_eq!(
            opts,
            HarnessOptions {
                scale: 1e-3,
                seed: 7,
                valid_population: true,
                cap: 10,
            }
        );
        let missing = HarnessOptions::parse(&args(&["--seed"])).unwrap_err();
        assert!(missing.contains("--seed"), "{missing}");
        let bad = HarnessOptions::parse(&args(&["--scale", "1e-3x"])).unwrap_err();
        assert!(bad.contains("--scale") && bad.contains("1e-3x"), "{bad}");
    }

    #[test]
    fn population_flag_switches_population() {
        let unique = HarnessOptions::default();
        let valid = HarnessOptions {
            valid_population: true,
            ..HarnessOptions::default()
        };
        assert_eq!(unique.population(), Population::Unique);
        assert_eq!(valid.population(), Population::Valid);
    }
}
