//! The shard and persist layers, timed from outside around their public
//! functions: a one-shard `analyze_sharded` (worker spawn), the snapshot
//! codec over each log's summary, and the snapshot store's append, commit
//! and open.

use crate::inprocess::fused_pass;
use crate::spans::{span, Tracer, ROOT};
use crate::stats::{median, ns_to_ms, Checks};
use crate::workload::Inputs;
use sparqlog_core::{
    file_identity, report, AnalysisCache, FusedAnalysis, LogSummary, PersistedLog, Population,
};
use sparqlog_obs as obs;
use sparqlog_persist::SnapshotStore;
use sparqlog_shard::snapshot::Snapshot;
use sparqlog_shard::{analyze_sharded, LogSpec, ShardOptions, WorkerCommand};
use std::io;
use std::path::Path;

/// The store records at most this many logs, so the section's fsyncs stay
/// bounded on workloads with hundreds of logs.
const PERSIST_MAX_LOGS: usize = 64;

/// Spawns of the one-entry sharded run.
const SPAWN_REPS: u64 = 5;

/// Re-opens of the built store.
const OPEN_REPS: u64 = 5;

fn counter(name: &str) -> u64 {
    obs::global().snapshot().counter(name).unwrap_or(0)
}

/// Median wall time in ms of a one-shard `analyze_sharded` over a one-entry
/// log: process spawn, pipe, decode and merge with almost no analysis.
pub fn shard_spawn(
    dir: &Path,
    worker: &WorkerCommand,
    tracer: &Tracer,
    checks: &mut Checks,
) -> io::Result<f64> {
    let path = dir.join("one-entry.log");
    std::fs::write(&path, "SELECT ?x WHERE { ?x a <http://example.org/C> }\n")?;
    let one = Inputs {
        logs: vec![crate::workload::LogFile {
            label: "one".to_string(),
            path: path.clone(),
            lines: 1,
        }],
        bytes: 0,
        digest: 0,
    };
    let expected = fused_pass(&one, 1, &AnalysisCache::new())?.report;
    let mut options = ShardOptions::new(worker.clone());
    options.shards = 1;
    options.worker_threads = 1;
    let logs = [LogSpec::new("one", &path)];
    let spawned_before = counter("shard_workers_total");
    for rep in 0..SPAWN_REPS {
        let s = span(Some(tracer), "shard.spawn", ROOT, rep);
        let result = analyze_sharded(&logs, Population::Unique, &options);
        drop(s);
        let ok = match &result {
            Ok(sharded) => {
                sharded.shards() == 1 && report::full_report(&sharded.corpus) == expected
            }
            Err(_) => false,
        };
        checks.check(ok, || format!("one-shard run {rep}: {:?}", result.err()));
    }
    let times: Vec<f64> = tracer
        .durations("shard.spawn")
        .into_iter()
        .map(ns_to_ms)
        .collect();
    let spawned = counter("shard_workers_total") - spawned_before;
    checks.check(spawned == SPAWN_REPS, || {
        format!("obs shard_workers_total counted {spawned} spawns, the benchmark made {SPAWN_REPS}")
    });
    Ok(median(&times))
}

/// Snapshot codec over every log summary: mean encode and decode time in
/// µs and mean encoded bytes per summary. Each summary must round-trip.
pub fn shard_codec(
    summaries: &[LogSummary],
    tracer: &Tracer,
    checks: &mut Checks,
) -> (f64, f64, f64) {
    let mut bytes_total = 0usize;
    for (i, summary) in summaries.iter().enumerate() {
        let bytes = {
            let _s = span(Some(tracer), "shard.encode", ROOT, i as u64);
            summary.to_bytes()
        };
        bytes_total += bytes.len();
        let decoded = {
            let _s = span(Some(tracer), "shard.decode", ROOT, i as u64);
            LogSummary::from_bytes(&bytes)
        };
        checks.check(decoded.as_ref() == Ok(summary), || {
            format!(
                "summary {} does not round-trip the snapshot codec",
                summary.label
            )
        });
    }
    let n = summaries.len().max(1) as f64;
    let mean_us = |name| tracer.durations(name).iter().sum::<u64>() as f64 / 1e3 / n;
    (
        mean_us("shard.encode"),
        mean_us("shard.decode"),
        bytes_total as f64 / n,
    )
}

/// Persist-layer timings: mean µs per `record_snapshot`, median ms per
/// `commit` (one per log, as the daemon commits once per job), median ms
/// per `open` of the finished store, and its size in bytes.
pub struct PersistTimes {
    pub append_us: f64,
    pub commit_ms: f64,
    pub open_ms: f64,
    pub store_bytes: f64,
}

pub fn persist(
    dir: &Path,
    inputs: &Inputs,
    reference: &FusedAnalysis,
    tracer: &Tracer,
    checks: &mut Checks,
) -> io::Result<PersistTimes> {
    let path = dir.join("persist-section.sqps");
    let (mut store, _) = SnapshotStore::open(&path)?;
    let before = obs::global().snapshot();
    let logs = inputs
        .logs
        .iter()
        .zip(&reference.summaries)
        .zip(&reference.corpus.datasets)
        .take(PERSIST_MAX_LOGS);
    let mut commits = 0u64;
    for (i, ((log, summary), dataset)) in logs.enumerate() {
        let key = file_identity(Population::Unique, &log.label, &log.path)?;
        let record = PersistedLog {
            summary: summary.clone(),
            analysis: dataset.clone(),
        };
        {
            let _s = span(Some(tracer), "persist.append", ROOT, i as u64);
            store.record_snapshot(key, &record)?;
        }
        {
            let _s = span(Some(tracer), "persist.commit", ROOT, i as u64);
            store.commit()?;
        }
        commits += 1;
    }
    let after = obs::global().snapshot();
    let delta = |name| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let (obs_commits, obs_fsyncs) = (
        delta("persist_commits_total"),
        delta("persist_fsyncs_total"),
    );
    checks.check(obs_commits == commits && obs_fsyncs == commits, || {
        format!("obs counted {obs_commits} commits and {obs_fsyncs} fsyncs, the benchmark made {commits} commits")
    });
    drop(store);
    for rep in 0..OPEN_REPS {
        let opened = {
            let _s = span(Some(tracer), "persist.open", ROOT, rep);
            SnapshotStore::open(&path)?
        };
        let (store, recovery) = opened;
        checks.check(
            recovery.is_clean() && store.snapshots() as u64 == commits,
            || {
                format!(
                    "re-opened store: clean={} snapshots={}",
                    recovery.is_clean(),
                    store.snapshots()
                )
            },
        );
    }
    let ms = |name| {
        tracer
            .durations(name)
            .into_iter()
            .map(ns_to_ms)
            .collect::<Vec<_>>()
    };
    let appends = tracer.durations("persist.append");
    Ok(PersistTimes {
        append_us: appends.iter().sum::<u64>() as f64 / 1e3 / appends.len().max(1) as f64,
        commit_ms: median(&ms("persist.commit")),
        open_ms: median(&ms("persist.open")),
        store_bytes: std::fs::metadata(&path)?.len() as f64,
    })
}
