//! The repository benchmark. One command runs one seeded workload against
//! the sparqlog engine and service, checks every output, prints every
//! metric with its unit and sample count, and ends with one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-dup|distinct-miss|served-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with obs metrics off and no
//! spans; `--trace 1` is a separate run that records spans around every
//! call into a layer, enables `crates/obs`, and reports the per-layer
//! metrics. `--corrupt-output` alters one output before it is checked, to
//! show that the check fires. See `README.md` for the workloads and the
//! metric definitions.

mod inprocess;
mod layers;
mod served;
mod spans;
mod stats;
mod workload;

use spans::Tracer;
use sparqlog_core::DatasetAnalysis;
use sparqlog_obs as obs;
use sparqlog_obs::EventRecord;
use stats::{median, quantile, Checks, Metrics};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use workload::{Inputs, LogFile, Workload};

/// Set-up runs this many times per run; `setup_s` is their median, and
/// every repetition must generate byte-identical inputs.
const SETUP_REPS: usize = 5;

/// Fused worker threads of the in-process passes.
const WORKERS: usize = 2;

const USAGE: &str = "usage: perfbench --workload table1-dup|distinct-miss|served-mixed \
                     --seed N --seconds S --trace 0|1 [--corrupt-output]";

/// Armed by `--corrupt-output`: the next checked output is altered first.
static CORRUPT: AtomicBool = AtomicBool::new(false);

/// Whether an output equals its reference. With `--corrupt-output`, the
/// first output checked is altered first, so its check must fail.
pub fn same_output(expected: &str, actual: &str) -> bool {
    output_digest(actual) == output_digest_of(expected)
}

/// The digest an output is checked by; the first one taken after
/// `--corrupt-output` is of an altered copy.
pub fn output_digest(actual: &str) -> u64 {
    let mut digest = stats::Fnv::default();
    digest.update(actual.as_bytes());
    if CORRUPT.swap(false, Ordering::SeqCst) {
        digest.update(b"!");
    }
    digest.0
}

fn output_digest_of(expected: &str) -> u64 {
    let mut digest = stats::Fnv::default();
    digest.update(expected.as_bytes());
    digest.0
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, None, None, None, false);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--corrupt-output" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(served::WORKER_ARG) {
        std::process::exit(sparqlog_shard::worker::run_cli(args.into_iter().skip(1)));
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    CORRUPT.store(args.corrupt, Ordering::SeqCst);
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Leaves `.perfbench` behind only when it holds span files.
    let _ = std::fs::remove_dir(".perfbench");
    match outcome {
        Ok((checks, metrics)) => {
            println!("{:<36} {:>16} {:<6} samples", "metric", "value", "unit");
            for m in &metrics.0 {
                println!(
                    "{:<36} {:>16.4} {:<6} {}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            println!(
                "checks: {} attempted, {} failed (failed_share {})",
                checks.attempted,
                checks.failed,
                checks.failed_share()
            );
            println!("{}", stats::result_json(&checks, &metrics));
            std::process::exit(if checks.failed == 0 { 0 } else { 1 });
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

/// The inputs after set-up, and for `served-mixed` the bound daemon.
struct Setup {
    inputs: Inputs,
    server: Option<sparqlog_serve::Server>,
    seconds: Vec<f64>,
}

/// Generates the inputs (and binds the daemon with a fresh store)
/// `SETUP_REPS` times, keeping the last; each repetition is timed and must
/// reproduce the first one's bytes exactly.
fn setup(args: &Args, work: &Path, checks: &mut Checks) -> io::Result<Setup> {
    let worker = served::worker_command(args.trace)?;
    let mut last: Option<Setup> = None;
    let mut digests = Vec::new();
    let mut seconds = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            drop(previous.server);
            std::fs::remove_dir_all(work.join(format!("setup-{}", rep - 1)))?;
        }
        let dir = work.join(format!("setup-{rep}"));
        let start = Instant::now();
        let inputs = workload::generate(args.workload, args.seed, &dir.join("logs"))?;
        let server = match args.workload {
            Workload::ServedMixed => Some(served::bind(&dir.join("daemon"), worker.clone())?),
            _ => None,
        };
        seconds.push(start.elapsed().as_secs_f64());
        digests.push(inputs.digest);
        last = Some(Setup {
            inputs,
            server,
            seconds: Vec::new(),
        });
    }
    let mut setup = last.expect("at least one set-up");
    let inputs = &setup.inputs;
    checks.check(digests.iter().all(|&d| d == digests[0]), || {
        format!(
            "seed {} generated different inputs across set-ups: {digests:x?}",
            args.seed
        )
    });
    println!(
        "inputs: workload={} seed={} logs={} lines={} bytes={} digest={:016x} \
         (identical over {SETUP_REPS} set-ups taking {seconds:.3?} s)",
        args.workload.name(),
        args.seed,
        inputs.logs.len(),
        inputs.lines(),
        inputs.bytes,
        inputs.digest,
    );
    setup.seconds = seconds;
    Ok(setup)
}

/// The 1-worker reference analysis of each log on its own. A served job's
/// report must equal these analyses combined; the combination is checked
/// against the engine's own report for every single log and for the first
/// `WARM_LOGS` logs together.
fn per_log_references(inputs: &Inputs, checks: &mut Checks) -> io::Result<Vec<DatasetAnalysis>> {
    let only = |logs: &[LogFile]| Inputs {
        logs: logs.to_vec(),
        bytes: 0,
        digest: 0,
    };
    let mut references = Vec::with_capacity(inputs.logs.len());
    for (i, log) in inputs.logs.iter().enumerate() {
        let pass = inprocess::reference(&only(std::slice::from_ref(log)), checks)?;
        references.extend(pass.fused.corpus.datasets);
        checks.check(
            served::expected_report(&references, &[i]) == pass.report,
            || {
                format!(
                    "{}: combined reference differs from the engine's report",
                    log.label
                )
            },
        );
    }
    let first = inputs.logs.len().min(served::WARM_LOGS);
    let engine = inprocess::reference(&only(&inputs.logs[..first]), checks)?.report;
    let combined: Vec<usize> = (0..first).collect();
    checks.check(
        served::expected_report(&references, &combined) == engine,
        || format!("combined reference of {first} logs differs from the engine's report"),
    );
    Ok(references)
}

fn run(args: &Args, work: &Path) -> io::Result<(Checks, Metrics)> {
    obs::set_enabled(args.trace);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let setup = setup(args, work, &mut checks)?;
    if args.trace {
        traced(args, work, setup, &mut checks, &mut metrics)?;
    } else {
        metrics.put("setup_s", median(&setup.seconds), "s", setup.seconds.len());
        match args.workload {
            Workload::ServedMixed => served_e2e(args, setup, &mut checks, &mut metrics)?,
            _ => inprocess_e2e(args, &setup.inputs, &mut checks, &mut metrics)?,
        }
    }
    Ok((checks, metrics))
}

/// Puts p50 and p90 of `ms` under `{prefix}_p50_ms` / `{prefix}_p90_ms`.
fn put_latency(metrics: &mut Metrics, prefix: &str, ms: &[f64]) {
    metrics.put(
        format!("{prefix}_p50_ms"),
        quantile(ms, 0.5),
        "ms",
        ms.len(),
    );
    metrics.put(
        format!("{prefix}_p90_ms"),
        quantile(ms, 0.9),
        "ms",
        ms.len(),
    );
}

/// End-to-end metrics of an in-process workload. A job here is one pass
/// over the whole corpus: cold with a fresh cache, warm with the cache the
/// preceding cold pass filled.
fn inprocess_e2e(
    args: &Args,
    inputs: &Inputs,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> io::Result<()> {
    let reference = inprocess::reference(inputs, checks)?;
    let rss_reset = stats::reset_peak_rss();
    let timed = inprocess::measure(inputs, WORKERS, args.seconds, &reference.report, checks)?;
    let peak = stats::peak_rss_mb();
    let cold_ms: Vec<f64> = timed.cold_seconds.iter().map(|s| s * 1e3).collect();
    let warm_ms: Vec<f64> = timed.warm_seconds.iter().map(|s| s * 1e3).collect();
    let passes = cold_ms.len() + warm_ms.len();
    metrics.put(
        "entries_per_s",
        inputs.lines() as f64 / median(&timed.cold_seconds),
        "1/s",
        cold_ms.len(),
    );
    metrics.put("peak_rss_mb", peak, "MiB", usize::from(rss_reset));
    metrics.put("jobs_per_s", passes as f64 / timed.elapsed, "1/s", passes);
    put_latency(metrics, "cold_job", &cold_ms);
    put_latency(metrics, "warm_job", &warm_ms);
    Ok(())
}

/// End-to-end metrics of `served-mixed`.
fn served_e2e(
    args: &Args,
    setup: Setup,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> io::Result<()> {
    let inputs = &setup.inputs;
    let references = per_log_references(inputs, checks)?;
    let daemon = served::Daemon::start(setup.server.expect("served-mixed binds a daemon"))?;
    let rss_reset = stats::reset_peak_rss();
    let schedules = served::timed_schedules(inputs.logs.len(), args.seed, args.seconds);
    let driven = served::drive(&daemon, &inputs.logs, schedules, None, checks);
    let peak = stats::peak_rss_mb();
    daemon.stop()?;
    served::verify(&driven.samples, &references, checks);
    let ms = |kind| -> Vec<f64> {
        driven
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| stats::ns_to_ms(s.total_ns))
            .collect()
    };
    let (cold, warm) = (ms(served::Kind::Cold), ms(served::Kind::Warm));
    let jobs = driven.samples.len();
    let entries: u64 = driven.samples.iter().map(|s| s.entries).sum();
    metrics.put(
        "entries_per_s",
        entries as f64 / driven.elapsed,
        "1/s",
        jobs,
    );
    metrics.put("peak_rss_mb", peak, "MiB", usize::from(rss_reset));
    metrics.put("jobs_per_s", jobs as f64 / driven.elapsed, "1/s", jobs);
    put_latency(metrics, "cold_job", &cold);
    put_latency(metrics, "warm_job", &warm);
    Ok(())
}

/// The traced run: per-layer metrics from spans around every call into a
/// layer, next to the obs registry's own numbers.
fn traced(
    args: &Args,
    work: &Path,
    setup: Setup,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> io::Result<()> {
    let tracer = Tracer::new();
    let inputs = &setup.inputs;
    let entries = inputs.lines() as f64;
    let reference = inprocess::reference(inputs, checks)?;

    // In-process engine and stage ledger.
    let engine = inprocess::traced(inputs, args.seconds, &tracer, &reference.report, checks)?;
    let self_ns = tracer.self_times();
    let ledger = engine.ledger;
    let n = engine.ledger_reps as usize;
    // A stage's self time per ledger pass, divided by `count`.
    let per = |stage: &str, count: u64| {
        self_ns.get(stage).copied().unwrap_or(0) as f64 / n as f64 / count.max(1) as f64
    };
    for (metric, stage, count) in [
        ("core.read_ns_per_entry", "core.read", ledger.entries),
        ("parser.parse_ns_per_entry", "parser.parse", ledger.entries),
        (
            "parser.fingerprint_ns_per_entry",
            "parser.fingerprint",
            ledger.entries,
        ),
        (
            "core.cache_probe_ns_per_entry",
            "core.cache_probe",
            ledger.entries,
        ),
        (
            "core.query_analysis_glue_ns_per_form",
            "core.query_analysis",
            ledger.forms_analysed,
        ),
        (
            "algebra.walk_ns_per_form",
            "algebra.walk",
            ledger.forms_analysed,
        ),
        (
            "graph.structure_ns_per_form",
            "graph.structure",
            ledger.forms_analysed,
        ),
        (
            "paths.tally_ns_per_form",
            "paths.tally",
            ledger.forms_analysed,
        ),
        ("core.fold_ns_per_form", "core.fold", ledger.forms_folded),
    ] {
        metrics.put(metric, per(stage, count), "ns", n);
    }
    metrics.put("core.report_ms", per("core.report", 1) / 1e6, "ms", n);
    let invalid_share = ledger.invalid as f64 / ledger.entries.max(1) as f64;
    metrics.put("parser.invalid_share", invalid_share, "share", 1);
    metrics.put("core.cache_hit_ratio", engine.hit_ratio, "share", 1);
    metrics.put(
        "core.distinct_forms",
        engine.distinct_forms as f64,
        "count",
        1,
    );

    let rounds = engine.rate_1w.len();
    let residual = median(&engine.residual_share);
    let overhead = median(&engine.overhead_share);
    let traced_rate = median(&engine.rate_2w_traced);
    metrics.put(
        "core.entries_per_s_1w",
        median(&engine.rate_1w),
        "1/s",
        rounds,
    );
    metrics.put(
        "core.scaling_2w",
        median(&engine.scaling_2w),
        "ratio",
        rounds,
    );
    metrics.put("core.ledger_residual_share", residual, "share", rounds);
    metrics.put("trace.entries_per_s_traced", traced_rate, "1/s", rounds);
    metrics.put("trace.overhead_share", overhead, "share", rounds);
    let obs_ns = |us: u64| us as f64 * 1e3 / engine.obs_entries.max(1) as f64;
    let (obs_read, obs_parse) = (obs_ns(engine.obs_read_us), obs_ns(engine.obs_parse_us));
    metrics.put("obs.pipeline_read_ns_per_entry", obs_read, "ns", rounds);
    metrics.put("obs.pipeline_parse_ns_per_entry", obs_parse, "ns", rounds);
    // `pipeline_parse_us` spans every ledger stage but read, fold and report.
    let parse_scope: f64 = inprocess::LEDGER_STAGES
        .iter()
        .filter(|s| !matches!(**s, "core.read" | "core.fold" | "core.report"))
        .map(|s| per(s, ledger.entries))
        .sum();
    println!(
        "ns/entry, 1 worker: outside read {:.1} vs obs pipeline_read_us {obs_read:.1}; \
         outside parse..analysis {parse_scope:.1} vs obs pipeline_parse_us {obs_parse:.1}",
        per("core.read", ledger.entries),
    );
    println!(
        "ledger residual share {residual:.4}, tracing overhead {overhead:.4} \
         (medians of {rounds} paired rounds)"
    );

    // Shard and persist layers.
    let worker = served::worker_command(true)?;
    metrics.put(
        "shard.spawn_ms",
        layers::shard_spawn(work, &worker, &tracer, checks)?,
        "ms",
        5,
    );
    let (encode_us, decode_us, bytes) =
        layers::shard_codec(&reference.fused.summaries, &tracer, checks);
    let summaries = reference.fused.summaries.len();
    metrics.put("shard.encode_us", encode_us, "us", summaries);
    metrics.put("shard.decode_us", decode_us, "us", summaries);
    metrics.put("shard.snapshot_bytes", bytes, "bytes", summaries);
    let persist = layers::persist(work, inputs, &reference.fused, &tracer, checks)?;
    let stored = inputs.logs.len().min(64);
    metrics.put("persist.append_us", persist.append_us, "us", stored);
    metrics.put("persist.commit_ms", persist.commit_ms, "ms", stored);
    metrics.put("persist.open_ms", persist.open_ms, "ms", 5);
    metrics.put("persist.store_bytes", persist.store_bytes, "bytes", 1);

    // The service.
    let server = match setup.server {
        Some(server) => server,
        None => served::bind(&work.join("traced-daemon"), worker)?,
    };
    let references = per_log_references(inputs, checks)?;
    let schedules = match args.workload {
        Workload::ServedMixed => {
            served::timed_schedules(inputs.logs.len(), args.seed, args.seconds)
        }
        _ => served::fixed_schedules(inputs.logs.len()),
    };
    let daemon = served::Daemon::start(server)?;
    let before = obs::global().snapshot();
    let driven = served::drive(&daemon, &inputs.logs, schedules, Some(&tracer), checks);
    let events = daemon.stop()?;
    served::verify(&driven.samples, &references, checks);
    let after = obs::global().snapshot();
    serve_metrics(&tracer, &driven, &events, &before, &after, checks, metrics);

    metrics.put(
        "failed_share",
        checks.failed_share(),
        "share",
        checks.attempted as usize,
    );
    let spans_path = PathBuf::from(".perfbench").join("spans").join(format!(
        "{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tracer.write_tsv(&spans_path)?;
    println!(
        "spans: {} written to {} ({entries} entries)",
        tracer.len(),
        spans_path.display()
    );
    Ok(())
}

fn serve_metrics(
    tracer: &Tracer,
    driven: &served::Driven,
    events: &[EventRecord],
    before: &obs::MetricsSnapshot,
    after: &obs::MetricsSnapshot,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    for (metric, span) in [
        ("serve.submit_ms_cold", "serve.cold_submit"),
        ("serve.submit_ms_warm", "serve.warm_submit"),
        ("serve.settle_ms_cold", "serve.cold_settle"),
        ("serve.settle_ms_warm", "serve.warm_settle"),
        ("serve.report_fetch_ms_cold", "serve.cold_report_fetch"),
        ("serve.report_fetch_ms_warm", "serve.warm_report_fetch"),
    ] {
        let ms: Vec<f64> = tracer
            .durations(span)
            .into_iter()
            .map(stats::ns_to_ms)
            .collect();
        metrics.put(metric, median(&ms), "ms", ms.len());
    }
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let count = |name: &str| events.iter().filter(|e| e.event() == name).count() as u64;
    let jobs = driven.samples.len() as u64;
    let cold = driven
        .samples
        .iter()
        .filter(|s| s.kind == served::Kind::Cold)
        .count() as u64;
    let status_requests = delta("serve_requests_total").saturating_sub(driven.non_status_requests);
    metrics.put(
        "serve.status_requests_per_job",
        status_requests as f64 / jobs.max(1) as f64,
        "count",
        jobs as usize,
    );
    let (starts, hits, completes) = (
        count("worker-start"),
        count("store-hit"),
        count("partition-complete"),
    );
    metrics.put(
        "serve.spawns_per_cold_job",
        starts as f64 / cold.max(1) as f64,
        "count",
        cold as usize,
    );
    metrics.put(
        "serve.store_hit_share",
        hits as f64 / (hits + completes).max(1) as f64,
        "share",
        jobs as usize,
    );
    let restarts = delta("serve_worker_restarts_total");
    metrics.put(
        "serve.worker_restarts",
        restarts as f64,
        "count",
        jobs as usize,
    );
    metrics.put("serve.threads_end", driven.threads_end, "count", 1);
    metrics.put("serve.fds_end", driven.fds_end, "count", 1);

    // A job whose records are all in the store already commits nothing and
    // re-reports the current sequence number, so count distinct sequences.
    // The store's sequence is the record's last `seq` field; the first one
    // is the event log's own correlation stamp.
    let sequences: BTreeSet<&str> = events
        .iter()
        .filter(|e| e.event() == "store-commit")
        .filter_map(|e| e.fields().iter().rev().find(|(k, _)| k == "seq"))
        .map(|(_, v)| v.as_str())
        .collect();
    let (commits, fsyncs) = (
        delta("persist_commits_total"),
        delta("persist_fsyncs_total"),
    );
    checks.check(
        commits == fsyncs && commits == sequences.len() as u64,
        || {
            format!(
                "daemon: obs {commits} commits, {fsyncs} fsyncs, {} committed sequences",
                sequences.len()
            )
        },
    );
    checks.check(starts == completes + restarts, || {
        format!("daemon: {starts} worker starts != {completes} worker-run partitions + {restarts} restarts")
    });
}
