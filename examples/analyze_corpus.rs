//! Analyse a (synthetic) multi-source query-log corpus end to end, the way
//! the paper analyses its 13 endpoint logs: ingest, deduplicate, and print
//! the headline tables.
//!
//! Run with `cargo run --release --example analyze_corpus`.

use sparqlog::core::analysis::Population;
use sparqlog::core::corpus::{analyze_streams, LogReader, MemoryLogReader};
use sparqlog::core::report;
use sparqlog::synth::{generate_corpus, CorpusConfig};

fn main() {
    // A small corpus: 1/100,000 of the real Table-1 sizes (≈ 2k queries).
    let corpus = generate_corpus(CorpusConfig {
        scale: 1e-5,
        seed: 7,
        max_entries_per_dataset: 0,
    });
    let readers: Vec<Box<dyn LogReader>> = corpus
        .logs
        .into_iter()
        .map(|l| Box::new(MemoryLogReader::new(l.dataset.label(), l.entries)) as Box<dyn LogReader>)
        .collect();

    let analysis = analyze_streams(readers, Population::Unique)
        .expect("in-memory streams cannot fail")
        .corpus;

    println!(
        "=== Table 1: corpus sizes ===\n{}",
        report::table1(&analysis)
    );
    println!(
        "=== Table 2: keyword counts ===\n{}",
        report::table2_keywords(&analysis.combined)
    );
    println!(
        "=== Table 3: operator sets ===\n{}",
        report::table3_opsets(&analysis.combined)
    );
    println!(
        "=== Section 5.2: fragments ===\n{}",
        report::section52_fragments(&analysis.combined)
    );
    println!(
        "=== Table 4: shapes ===\n{}",
        report::table4_shapes(&analysis.combined)
    );
    println!(
        "=== Table 5: property paths ===\n{}",
        report::table5_paths(&analysis.combined)
    );
}
