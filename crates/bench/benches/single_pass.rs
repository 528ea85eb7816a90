//! Criterion micro-benchmark: the single-pass analysis against the seed
//! multi-walk oracle on the synthetic corpus. The tentpole claim of the
//! workspace refactor is that one shared traversal per query
//! (`QueryAnalysis::of_ref`) beats re-walking the AST once per measure.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sparqlog_bench::{build_corpus, corpus_readers, raw_corpus, HarnessOptions};
use sparqlog_core::analysis::{DatasetAnalysis, Population};
use sparqlog_core::baseline::analyze_multiwalk;
use sparqlog_core::{analyze_streams, QueryAnalysis};
use sparqlog_parser::intern::Interner;
use sparqlog_parser::{parse_query_in, to_canonical_string, Arena};

fn bench_single_pass(c: &mut Criterion) {
    let opts = HarnessOptions {
        scale: 1e-5,
        cap: 400,
        ..HarnessOptions::default()
    };
    let logs = build_corpus(&opts);
    let queries: Vec<_> = logs.iter().flat_map(|l| l.unique_queries()).collect();
    let texts: Vec<String> = queries.iter().map(|q| to_canonical_string(q)).collect();
    let arena = Arena::new();
    let borrowed: Vec<_> = texts
        .iter()
        .map(|text| parse_query_in(text, &arena).expect("canonical forms re-parse"))
        .collect();

    let mut group = c.benchmark_group("single_pass");
    group.sample_size(10);
    group.bench_function("per_query_multi_walk", |b| {
        b.iter(|| {
            let mut analysis = DatasetAnalysis::default();
            for q in &queries {
                sparqlog_core::baseline::add_query_multiwalk(&mut analysis, black_box(q));
            }
            analysis
        })
    });
    group.bench_function("per_query_single_pass", |b| {
        b.iter(|| {
            let mut analysis = DatasetAnalysis::default();
            let mut interner = Interner::new();
            for q in &borrowed {
                analysis.add(&QueryAnalysis::of_ref(black_box(q), &mut interner));
            }
            analysis
        })
    });
    group.bench_function("corpus_multi_walk_sequential", |b| {
        b.iter(|| analyze_multiwalk(black_box(&logs), Population::Unique))
    });
    group.bench_function("corpus_fused_ingest_and_analyze", |b| {
        b.iter(|| {
            analyze_streams(corpus_readers(raw_corpus(&opts)), Population::Unique)
                .expect("in-memory streams cannot fail")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_pass);
criterion_main!(benches);
