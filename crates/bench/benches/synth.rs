//! Criterion micro-benchmark: synthetic corpus generation and end-to-end
//! corpus analysis throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sparqlog_core::analysis::Population;
use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
use sparqlog_synth::{Dataset, Synthesizer};

fn bench_synth(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth");
    group.sample_size(10);
    group.bench_function("generate_1000_dbpedia15_entries", |b| {
        b.iter(|| {
            let mut synth = Synthesizer::for_dataset(Dataset::DBpedia15, black_box(3));
            synth.generate_log(1000)
        })
    });

    let mut synth = Synthesizer::for_dataset(Dataset::DBpedia15, 3);
    let entries = synth.generate_log(500);
    group.bench_function("ingest_and_analyze_500_entries", |b| {
        b.iter(|| {
            let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
                "DBpedia15",
                black_box(entries.clone()),
            ))];
            analyze_streams(readers, Population::Unique).expect("in-memory streams cannot fail")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_synth);
criterion_main!(benches);
