//! The `SPARQLOG_WORKERS` environment override: CI pins the fused engine's
//! pool to 1/2/8 workers, and the report must not change with the pool it
//! runs with. Kept in its own integration-test binary (and a single
//! `#[test]`) because environment mutation is process-global.

mod common;

use common::{oracle, oracle_logs, slice_readers};
use sparqlog::core::corpus::{analyze_streams, default_workers, RawLog};
use sparqlog::core::Population;

#[test]
fn workers_env_override_pins_the_pools_without_changing_reports() {
    // A positive integer pins the worker count.
    std::env::set_var("SPARQLOG_WORKERS", "3");
    assert_eq!(default_workers(), 3);

    // Garbage and zero fall back to the available parallelism.
    std::env::set_var("SPARQLOG_WORKERS", "not-a-number");
    assert!(default_workers() >= 1);
    std::env::set_var("SPARQLOG_WORKERS", "0");
    assert!(default_workers() >= 1);

    // Reports are byte-identical whatever the override says.
    let logs: Vec<RawLog> = vec![RawLog::new(
        "env",
        (0..300)
            .map(|i| format!("SELECT ?x WHERE {{ ?x <http://p{}> ?y }}", i % 40))
            .collect(),
    )];
    let reference_ingest = oracle_logs(&logs);
    let reference = format!("{:?}", oracle(&logs, Population::Unique));
    for workers in ["1", "2", "8"] {
        std::env::set_var("SPARQLOG_WORKERS", workers);
        assert_eq!(default_workers(), workers.parse::<usize>().unwrap());
        let run = analyze_streams(slice_readers(&logs), Population::Unique).unwrap();
        for (a, b) in run.summaries.iter().zip(&reference_ingest) {
            assert_eq!(a.counts, b.counts, "SPARQLOG_WORKERS={workers}");
        }
        assert_eq!(
            reference,
            format!("{:?}", run.corpus),
            "SPARQLOG_WORKERS={workers}"
        );
    }
    std::env::remove_var("SPARQLOG_WORKERS");
    assert!(default_workers() >= 1);
}
