//! Ablation: the single-pass analysis against the seed multi-walk oracle,
//! on the same synthetic corpus. Reports the per-query fold times, the
//! end-to-end corpus times and their speedups (the workspace-refactor
//! acceptance target is >= 1.5x), and exits non-zero if the fused corpus
//! report differs by a single byte from the oracle's.

use sparqlog_bench::gate::DivergenceGate;
use sparqlog_bench::{
    banner, build_corpus, corpus_readers, oracle_corpus, raw_corpus, HarnessOptions,
};
use sparqlog_core::analysis::DatasetAnalysis;
use sparqlog_core::baseline::add_query_multiwalk;
use sparqlog_core::corpus::analyze_streams;
use sparqlog_core::report::full_report;
use sparqlog_core::QueryAnalysis;
use sparqlog_parser::intern::Interner;
use sparqlog_parser::{parse_query_in, to_canonical_string, Arena};
use std::time::Instant;

fn main() {
    let opts = HarnessOptions::from_args();
    banner("ablation: single-pass vs multi-walk analysis", &opts);
    let logs = build_corpus(&opts);
    let queries: Vec<_> = logs.iter().flat_map(|l| l.unique_queries()).collect();
    println!("unique queries analysed: {}\n", queries.len());

    // The single pass walks the borrowed arena AST the fused engine parses
    // into; re-parsing each canonical form yields the same analysis.
    let texts: Vec<String> = queries.iter().map(|q| to_canonical_string(q)).collect();
    let arena = Arena::new();
    let borrowed: Vec<_> = texts
        .iter()
        .map(|text| parse_query_in(text, &arena).expect("canonical forms re-parse"))
        .collect();

    let repeats = 5;
    let mut multi_best = f64::INFINITY;
    let mut single_best = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        let mut analysis = DatasetAnalysis::default();
        for q in &queries {
            add_query_multiwalk(&mut analysis, q);
        }
        std::hint::black_box(&analysis);
        multi_best = multi_best.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut analysis = DatasetAnalysis::default();
        let mut interner = Interner::new();
        for q in &borrowed {
            analysis.add(&QueryAnalysis::of_ref(q, &mut interner));
        }
        std::hint::black_box(&analysis);
        single_best = single_best.min(t.elapsed().as_secs_f64());
    }
    println!("per-query fold, multi-walk : {:.3} ms", multi_best * 1e3);
    println!("per-query fold, single-pass: {:.3} ms", single_best * 1e3);
    println!("speedup: {:.2}x\n", multi_best / single_best);

    let raw = raw_corpus(&opts);
    let t = Instant::now();
    let oracle = oracle_corpus(&raw, opts.population());
    let multi_corpus = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fused = analyze_streams(corpus_readers(raw), opts.population())
        .expect("in-memory streams cannot fail");
    let single_corpus = t.elapsed().as_secs_f64();
    println!(
        "corpus ingest+analysis, multi-walk oracle (sequential): {:.3} ms",
        multi_corpus * 1e3
    );
    println!(
        "corpus ingest+analysis, fused single-pass (pooled)    : {:.3} ms",
        single_corpus * 1e3
    );
    println!("speedup: {:.2}x\n", multi_corpus / single_corpus);

    let mut gate = DivergenceGate::new();
    gate.compare(
        "fused corpus report differs from the multi-walk oracle",
        &full_report(&oracle),
        &full_report(&fused.corpus),
    );
    gate.finish("fused and multi-walk oracle corpus reports are byte-identical");
}
