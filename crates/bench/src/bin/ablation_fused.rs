//! Ablation: the fused ingest→analyze streaming engine against the test
//! oracle, on a duplicate-heavy synthetic corpus on disk.
//!
//! Both contenders read the same on-disk logs:
//!
//! * **oracle** — each file is read into a `RawLog`, `ingest` keeps every
//!   valid query's owned AST, and the seed multi-walk `analyze_multiwalk`
//!   folds every query of the population sequentially;
//! * **fused** — `analyze_streams` streams the files through
//!   [`FileLogReader`](sparqlog_core::corpus::FileLogReader)s and analyses
//!   each batch as it parses: duplicates fold occurrence-weighted, ASTs die
//!   inside their batch, and one worker pool does all the work.
//!
//! The binary prints the end-to-end speedup (target ≥ 1.3×), the
//! peak-residency deltas from the counting allocator (build with
//! `--features alloc-stats` for real numbers — the fused peak is bounded by
//! in-flight batches + distinct analyses, not by corpus size), and **exits
//! non-zero if the fused and oracle corpus reports differ by a single byte
//! on either population at 1, 2 or 8 workers**.

use sparqlog_bench::gate::DivergenceGate;
use sparqlog_bench::{
    alloc_stats, banner, open_file_readers, oracle_corpus, stats_banner, write_corpus_files,
    HarnessOptions,
};
use sparqlog_core::analysis::{CorpusAnalysis, Population};
use sparqlog_core::cache::AnalysisCache;
use sparqlog_core::corpus::{analyze_streams_cached, FusedAnalysis, FusedOptions, RawLog};
use sparqlog_core::report::full_report;
use std::path::PathBuf;
use std::time::Instant;

/// How many times each log's entries are tiled into its temp file: every
/// query occurs at least this many times, matching the duplication regime
/// the source paper reports for real logs.
const TILE: usize = 6;

/// The measured runs per contender; the minimum wall-clock wins.
const REPEATS: usize = 3;

/// One oracle end-to-end run: read every file into memory, ingest with
/// owned ASTs retained, then fold sequentially through the multi-walk.
fn run_oracle(files: &[(String, PathBuf)], population: Population) -> CorpusAnalysis {
    let raw: Vec<RawLog> = files
        .iter()
        .map(|(label, path)| {
            let text = std::fs::read_to_string(path).expect("read temp log");
            RawLog::new(label.clone(), text.lines().map(str::to_string).collect())
        })
        .collect();
    oracle_corpus(&raw, population)
}

/// One fused end-to-end run: parse, fingerprint, dedup and fold in a single
/// pass over the same temp files.
fn run_fused(files: &[(String, PathBuf)], population: Population, workers: usize) -> FusedAnalysis {
    let cache = AnalysisCache::new();
    analyze_streams_cached(
        open_file_readers(files),
        population,
        FusedOptions {
            recovery: Default::default(),
            workers,
            ..FusedOptions::default()
        },
        &cache,
    )
    .expect("fused engine reads the temp files")
}

/// Times `run` over [`REPEATS`] cold runs; returns the last result, the
/// minimum wall-clock and the peak live bytes above the pre-run baseline
/// (0 without `alloc-stats`).
fn measure<T>(mut run: impl FnMut() -> T) -> (T, f64, u64) {
    let mut best = f64::INFINITY;
    let mut peak = 0u64;
    let mut result = None;
    for _ in 0..REPEATS {
        alloc_stats::reset_peak();
        let baseline = alloc_stats::snapshot().unwrap_or_default();
        let start = Instant::now();
        let out = run();
        best = best.min(start.elapsed().as_secs_f64());
        let after = alloc_stats::snapshot().unwrap_or_default();
        peak = peak.max(after.peak_above(&baseline));
        result = Some(out);
    }
    (result.expect("at least one repeat"), best, peak)
}

fn main() {
    let opts = HarnessOptions::from_args();
    banner("ablation: fused ingest→analyze streaming engine", &opts);

    let dir = std::env::temp_dir().join(format!("sparqlog-fused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp corpus dir");
    let (files, total_entries) = write_corpus_files(&opts, &dir, TILE);

    // -- Timed leg: end-to-end on the Valid ("all") population. -------------
    let (oracle_valid, oracle_time, oracle_peak) =
        measure(|| run_oracle(&files, Population::Valid));
    let (fused_valid, fused_time, fused_peak) = measure(|| run_fused(&files, Population::Valid, 0));
    let counts = &fused_valid.corpus.combined.counts;
    println!(
        "corpus: {} entries on disk, {} valid, {} distinct canonical forms, \
         mean occurrence rate {:.2}x",
        total_entries,
        counts.valid,
        counts.unique,
        counts.valid as f64 / counts.unique.max(1) as f64
    );
    println!(
        "\n{:<52} {:>10} {:>14}",
        "end-to-end ingest+analyze (Valid population)", "time", "entries/s"
    );
    println!(
        "{:<52} {:>8.2}ms {:>14.0}",
        "oracle (materialize ASTs, then multi-walk)",
        oracle_time * 1e3,
        total_entries as f64 / oracle_time
    );
    println!(
        "{:<52} {:>8.2}ms {:>14.0}",
        "fused (analyze each batch as it parses)",
        fused_time * 1e3,
        total_entries as f64 / fused_time
    );
    let speedup = oracle_time / fused_time;
    println!(
        "end-to-end speedup: {:.2}x (target >= 1.3x: {})\n",
        speedup,
        if speedup >= 1.3 { "PASS" } else { "MISS" }
    );
    println!("{}\n", stats_banner(&fused_valid.stats));

    // -- Peak-residency leg. -------------------------------------------------
    let fused_stats = &fused_valid.fused;
    println!(
        "fused residency: {} batches, peak {} raw entries in flight, {} distinct analyses kept",
        fused_stats.batches, fused_stats.peak_inflight_entries, fused_stats.distinct_forms
    );
    if alloc_stats::enabled() {
        println!(
            "peak live bytes above baseline: oracle {:.2} MiB, fused {:.2} MiB ({:.1}x less) — \
             the fused peak is bounded by in-flight batches + distinct analyses, \
             the oracle peak by the whole corpus",
            oracle_peak as f64 / (1 << 20) as f64,
            fused_peak as f64 / (1 << 20) as f64,
            oracle_peak as f64 / fused_peak.max(1) as f64
        );
    } else {
        println!(
            "peak live bytes: unavailable (rebuild with `--features alloc-stats` \
             for allocator-measured residency)"
        );
    }

    // -- Differential gate: byte-identical reports, both populations,
    //    1/2/8 workers. -------------------------------------------------------
    let mut gate = DivergenceGate::new();
    let oracle_unique = run_oracle(&files, Population::Unique);
    for (population, reference) in [
        (Population::Valid, &oracle_valid),
        (Population::Unique, &oracle_unique),
    ] {
        let reference_report = full_report(reference);
        for workers in [1, 2, 8] {
            let fused = run_fused(&files, population, workers);
            gate.compare(
                &format!("fused report differs on {population:?} at {workers} workers"),
                &reference_report,
                &full_report(&fused.corpus),
            );
        }
    }
    gate.compare(
        "timed fused run differs from the oracle report",
        &full_report(&oracle_valid),
        &full_report(&fused_valid.corpus),
    );

    let _ = std::fs::remove_dir_all(&dir);
    gate.finish(
        "fused and oracle corpus reports are byte-identical on both populations \
         at 1/2/8 workers",
    );
}
