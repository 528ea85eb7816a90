//! Ablation: the zero-copy arena parse stage against the owned-AST
//! materializing stage, on a duplicate-heavy synthetic corpus.
//!
//! Both contenders tokenize and parse the same entries with the same SWAR
//! lexer; they differ in what each parse *materializes*:
//!
//! * **owned** — [`parse_query`] builds the borrowed AST in the thread-local
//!   arena and converts it to the heap-owned `ast::Query` form (`String`s
//!   and `Vec`s per node), then fingerprints the owned tree — the shape of
//!   the pre-arena pipeline, and what the test oracle's `ingest` retains;
//! * **zero-copy** — the caller resets a bump [`Arena`] per entry,
//!   [`parse_query_in`] allocates every node and string slice into it, and
//!   the fingerprint streams straight off the borrowed tree — the fused
//!   engine's hot loop, whose steady state touches the global allocator only
//!   when the arena grows (which stops after the first few entries).
//!
//! The binary prints the parse-stage speedup (target ≥ 1.3×) and the
//! allocator-traffic ratio from the counting allocator (build with
//! `--features alloc-stats`; target ≥ 10× fewer bytes per steady-state
//! pass), and **exits non-zero** if the two paths fingerprint a single entry
//! differently, or if the fused engine's full report (arenas on) differs by
//! a byte from the oracle's (owned ASTs, multi-walk) on either population at
//! 1, 2 or 8 workers.

use sparqlog_bench::gate::DivergenceGate;
use sparqlog_bench::{
    alloc_stats, banner, corpus_readers, oracle_corpus, raw_corpus, HarnessOptions,
};
use sparqlog_core::analysis::Population;
use sparqlog_core::corpus::{analyze_streams_with, FusedOptions};
use sparqlog_core::report::full_report;
use sparqlog_parser::{
    canonical_fingerprint_of, canonical_fingerprint_of_ref, parse_query, parse_query_in, Arena,
};
use std::time::Instant;

/// How many times the corpus entries are tiled into the parse-stage input:
/// enough passes that the arena and the thread-local state reach steady
/// state and per-entry costs dominate setup.
const TILE: usize = 4;

/// The measured runs per contender; the minimum wall-clock and the minimum
/// allocator traffic win (later runs parse with warm arenas).
const REPEATS: usize = 3;

/// Parses every entry into the heap-owned AST and fingerprints the owned
/// tree. XOR-folding the fingerprints keeps the work observable.
fn parse_owned(entries: &[String]) -> u128 {
    let mut acc = 0u128;
    for entry in entries {
        if let Ok(query) = parse_query(entry) {
            acc ^= canonical_fingerprint_of(&query);
        }
    }
    acc
}

/// Parses every entry into the bump arena (reset per entry) and fingerprints
/// the borrowed tree; nothing is materialized on the heap.
fn parse_zero_copy(entries: &[String], arena: &mut Arena) -> u128 {
    let mut acc = 0u128;
    for entry in entries {
        arena.reset();
        if let Ok(query) = parse_query_in(entry, arena) {
            acc ^= canonical_fingerprint_of_ref(&query);
        }
    }
    acc
}

/// Times `run` over [`REPEATS`] runs; returns the last result, the minimum
/// wall-clock, and the minimum bytes/allocations the run pushed through the
/// global allocator (0 without `alloc-stats`).
fn measure<T>(mut run: impl FnMut() -> T) -> (T, f64, u64, u64) {
    let mut best = f64::INFINITY;
    let mut bytes = u64::MAX;
    let mut allocations = u64::MAX;
    let mut result = None;
    for _ in 0..REPEATS {
        let baseline = alloc_stats::snapshot().unwrap_or_default();
        let start = Instant::now();
        let out = run();
        best = best.min(start.elapsed().as_secs_f64());
        let after = alloc_stats::snapshot().unwrap_or_default();
        bytes = bytes.min(after.allocated_since(&baseline));
        allocations = allocations.min(after.allocations - baseline.allocations);
        result = Some(out);
    }
    (
        result.expect("at least one repeat"),
        best,
        bytes,
        allocations,
    )
}

fn main() {
    let opts = HarnessOptions::from_args();
    banner("ablation: zero-copy arena parse stage", &opts);

    // -- Parse-stage leg: same entries, owned vs zero-copy. -----------------
    let mut entries = Vec::new();
    for log in raw_corpus(&opts) {
        for _ in 0..TILE {
            entries.extend(log.entries.iter().cloned());
        }
    }
    let (owned_acc, owned_time, owned_bytes, owned_allocations) = measure(|| parse_owned(&entries));
    let mut arena = Arena::new();
    let (zero_acc, zero_time, zero_bytes, zero_allocations) =
        measure(|| parse_zero_copy(&entries, &mut arena));

    println!(
        "parse stage: {} entries per pass ({} distinct tiled {}x)\n",
        entries.len(),
        entries.len() / TILE,
        TILE
    );
    println!(
        "{:<52} {:>10} {:>14}",
        "parse + fingerprint (single core)", "time", "entries/s"
    );
    println!(
        "{:<52} {:>8.2}ms {:>14.0}",
        "owned (arena parse, then to_owned per entry)",
        owned_time * 1e3,
        entries.len() as f64 / owned_time
    );
    println!(
        "{:<52} {:>8.2}ms {:>14.0}",
        "zero-copy (arena reset per entry, borrowed AST)",
        zero_time * 1e3,
        entries.len() as f64 / zero_time
    );
    let speedup = owned_time / zero_time;
    println!(
        "parse-stage speedup: {:.2}x (target >= 1.3x: {})\n",
        speedup,
        if speedup >= 1.3 { "PASS" } else { "MISS" }
    );

    if alloc_stats::enabled() {
        let ratio = owned_bytes as f64 / zero_bytes.max(1) as f64;
        println!(
            "allocator traffic per pass: owned {:.2} MiB in {} allocations, \
             zero-copy {:.2} KiB in {} allocations — {:.0}x less (target >= 10x: {})",
            owned_bytes as f64 / (1 << 20) as f64,
            owned_allocations,
            zero_bytes as f64 / (1 << 10) as f64,
            zero_allocations,
            ratio,
            if ratio >= 10.0 { "PASS" } else { "MISS" }
        );
    } else {
        println!(
            "allocator traffic: unavailable (rebuild with `--features alloc-stats` \
             for allocator-measured numbers)"
        );
    }

    // -- Differential gate. --------------------------------------------------
    let mut gate = DivergenceGate::new();
    gate.require(
        owned_acc == zero_acc,
        "owned and zero-copy parses fingerprint the corpus differently",
    );

    // Full reports with arenas on: the fused engine (per-worker arenas,
    // borrowed analyses) against the oracle (owned ASTs), both
    // populations, 1/2/8 workers. The Valid-population runs double as the
    // first multi-core wall-clock scaling sample (informational — thread
    // spawn and the batch mutex dominate at this corpus scale).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scaling: Vec<(usize, f64, u64)> = Vec::new();
    for population in [Population::Valid, Population::Unique] {
        let reference = full_report(&oracle_corpus(&raw_corpus(&opts), population));
        for workers in [1, 2, 8] {
            let readers = corpus_readers(raw_corpus(&opts));
            let start = Instant::now();
            let fused = analyze_streams_with(
                readers,
                population,
                FusedOptions {
                    recovery: Default::default(),
                    workers,
                    ..FusedOptions::default()
                },
            )
            .expect("in-memory streams cannot fail");
            let elapsed = start.elapsed().as_secs_f64();
            gate.compare(
                &format!("fused report differs on {population:?} at {workers} workers"),
                &reference,
                &full_report(&fused.corpus),
            );
            if population == Population::Valid {
                scaling.push((workers, elapsed, fused.corpus.combined.counts.valid));
            }
        }
    }
    println!("\nfused end-to-end wall clock by worker count ({cores} cores available, arenas on):");
    for &(workers, elapsed, valid) in &scaling {
        println!(
            "  {workers} workers: {:>8.2}ms ({:>10.0} valid entries/s)",
            elapsed * 1e3,
            valid as f64 / elapsed
        );
    }

    gate.finish(
        "owned and zero-copy parses agree on every fingerprint, and fused \
         reports are byte-identical to the oracle's on both populations at 1/2/8 workers",
    );
}
