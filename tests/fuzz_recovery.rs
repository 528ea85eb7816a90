//! Fuzz harness for malformed-input recovery: byte soup, truncation sweeps
//! and single-byte mutations of valid queries, all ingested in Lenient
//! mode. Every case asserts the hardening contract end-to-end — no panic
//! escapes the engine, the in-process, sharded and served deployments of
//! the fused engine produce byte-identical reports and error tallies, and
//! the independent oracle agrees with them (see `common::assert_oracle_agrees`
//! for the one invalid-UTF-8 caveat).
//!
//! The case count defaults to 48 per property and scales with the
//! `SPARQLOG_FUZZ_CASES` environment variable (the CI fuzz-smoke job runs
//! an elevated count). Cases are generated deterministically by the
//! proptest shim; a failure prints the offending inputs, which double as
//! the reproduction seed.

mod common;

use common::assert_oracle_agrees;
use proptest::prelude::*;
use sparqlog::core::corpus::{analyze_streams_with, FileLogReader, FusedOptions, LogReader};
use sparqlog::core::report::full_report;
use sparqlog::core::{Population, RecoveryPolicy};
use sparqlog::serve::{Client, JobPhase, ServeAddr, ServeConfig, Server, ServerHandle};
use sparqlog::shard::{analyze_sharded, LogSpec, ShardOptions, WorkerCommand};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_sparqlog-shard-worker");
const SETTLE: Duration = Duration::from_secs(300);
const VALID_BEFORE: &str = "SELECT ?x WHERE { ?x a <http://example.org/Widget> }";
const VALID_AFTER: &str = "ASK { ?a <http://example.org/p> ?b }";

/// Cases per property; override with `SPARQLOG_FUZZ_CASES`.
fn fuzz_cases() -> u32 {
    std::env::var("SPARQLOG_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Writes one fuzz corpus to a unique scratch file and returns its path.
fn write_case(prefix: &str, bytes: &[u8]) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("sparqlog-fuzz-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fuzz scratch dir");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{prefix}-{n}.log"));
    std::fs::write(&path, bytes).expect("write fuzz case");
    path
}

fn reader(path: &PathBuf) -> Vec<Box<dyn LogReader>> {
    vec![Box::new(FileLogReader::open("fuzz".to_string(), path).expect("open fuzz log")) as _]
}

/// One server shared by every fuzz case (starting one per case would
/// dominate the runtime); submissions are serialized through one client.
fn serve_client() -> &'static Mutex<Client> {
    static SERVER: OnceLock<(Mutex<Client>, ServerHandle)> = OnceLock::new();
    let (client, _handle) = SERVER.get_or_init(|| {
        let config = ServeConfig {
            worker: WorkerCommand::new(WORKER),
            worker_slots: 2,
            worker_threads: 2,
            heartbeat: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let server =
            Server::bind(config, &ServeAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        std::thread::spawn(move || server.run());
        let client = Client::connect(&addr).expect("connect");
        (Mutex::new(client), handle)
    });
    client
}

/// The hardening contract, asserted for one fuzz corpus: Lenient ingestion
/// never fails, the fused engine (1/2/8 workers), its sharded and served
/// deployments agree byte-for-byte on the report and the error tally, and
/// the oracle agrees with them.
fn assert_engines_agree(prefix: &str, bytes: &[u8]) {
    let path = write_case(prefix, bytes);

    let reference = analyze_streams_with(
        reader(&path),
        Population::Unique,
        FusedOptions {
            workers: 1,
            batch: 0,
            recovery: RecoveryPolicy::Lenient,
        },
    )
    .expect("lenient fused ingestion must recover any input");
    let report = full_report(&reference.corpus);

    for (workers, batch) in [(2, 1), (8, 7)] {
        let fused = analyze_streams_with(
            reader(&path),
            Population::Unique,
            FusedOptions {
                workers,
                batch,
                recovery: RecoveryPolicy::Lenient,
            },
        )
        .expect("lenient fused ingestion must recover any input");
        assert_eq!(fused.summaries, reference.summaries, "{workers} workers");
        assert_eq!(full_report(&fused.corpus), report, "{workers} workers");
    }

    assert_oracle_agrees(&[("fuzz", bytes)], Population::Unique, &reference);

    let logs = vec![LogSpec::new("fuzz", &path)];
    let options = ShardOptions {
        shards: 2,
        worker_threads: 2,
        worker: WorkerCommand::new(WORKER),
        recovery: RecoveryPolicy::Lenient,
    };
    let sharded =
        analyze_sharded(&logs, Population::Unique, &options).expect("sharded run must recover");
    assert_eq!(sharded.summaries, reference.summaries, "sharded");
    assert_eq!(full_report(&sharded.corpus), report, "sharded");

    let mut client = serve_client().lock().expect("serve client");
    let (job, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Lenient,
            vec![("fuzz".to_string(), path.display().to_string())],
        )
        .expect("submit fuzz job");
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "served: {}", status.error);
    assert_eq!(
        status.errors,
        reference.summaries[0].errors.total(),
        "served"
    );
    let served = client.report(job, true).expect("report");
    assert_eq!(served.text, report, "served");
    drop(client);

    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Arbitrary byte soup — embedded NULs, stray newlines, invalid UTF-8,
    /// anything — never panics and never diverges between engines.
    #[test]
    fn byte_soup_recovers_identically_everywhere(
        bytes in prop::collection::vec(0u8..=255u8, 0..600),
    ) {
        assert_engines_agree("soup", &bytes);
    }

    /// A synthesized valid query truncated at an arbitrary byte offset
    /// (possibly mid-UTF-8-sequence), sandwiched between valid entries:
    /// the neighbors survive, the stump is tallied, every engine agrees.
    #[test]
    fn truncation_sweep_recovers_identically_everywhere(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        cut in 0usize..400,
    ) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::ALL[dataset_idx]), seed);
        let query = synth.fresh_query();
        let cut = cut.min(query.len());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(VALID_BEFORE.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&query.as_bytes()[..cut]);
        bytes.push(b'\n');
        bytes.extend_from_slice(VALID_AFTER.as_bytes());
        bytes.push(b'\n');
        assert_engines_agree("trunc", &bytes);
    }

    /// A synthesized valid query with one byte overwritten by an arbitrary
    /// value (which may inject a NUL, a newline that splits the entry, or
    /// an invalid UTF-8 byte): no panic, engines byte-identical.
    #[test]
    fn single_byte_mutation_recovers_identically_everywhere(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        position in 0usize..4_096,
        value in 0u8..=255u8,
    ) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::ALL[dataset_idx]), seed);
        let mut query = synth.fresh_query().into_bytes();
        let at = position % query.len();
        query[at] = value;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(VALID_BEFORE.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&query);
        bytes.push(b'\n');
        bytes.extend_from_slice(VALID_AFTER.as_bytes());
        bytes.push(b'\n');
        assert_engines_agree("mutate", &bytes);
    }
}
