//! The service: a `Server` bound in this process over TCP on localhost
//! with a fresh snapshot store, its workers being this same executable in
//! worker mode, driven by closed-loop `sparqlog_serve::Client`s. Each job
//! is the sequence `sparqlog-client submit --wait` runs: submit, then
//! `wait_settled`, then fetch the full report.

use crate::spans::{span, Tracer, ROOT};
use crate::stats::{Checks, Fnv};
use crate::workload::LogFile;
use sparqlog_core::{report, DatasetAnalysis, Population, RecoveryPolicy};
use sparqlog_obs::journal::EventRecord;
use sparqlog_serve::{Client, JobPhase, ServeAddr, ServeConfig, Server, ServerHandle};
use sparqlog_shard::WorkerCommand;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The first argument that turns this executable into a shard worker.
pub const WORKER_ARG: &str = "shard-worker";

/// Concurrent worker processes of the daemon, and client connections.
pub const SLOTS: usize = 2;

/// How long a client waits for one job to settle before counting it failed.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(60);

/// This executable in worker mode, with obs metrics on or off.
pub fn worker_command(metrics: bool) -> io::Result<WorkerCommand> {
    let mut worker = WorkerCommand::new(std::env::current_exe()?)
        .env("SPARQLOG_METRICS", if metrics { "1" } else { "0" });
    worker.args.push(WORKER_ARG.to_string());
    Ok(worker)
}

/// Binds a daemon on an ephemeral localhost port with a snapshot store in
/// `dir` (which must be fresh).
pub fn bind(dir: &Path, worker: WorkerCommand) -> io::Result<Server> {
    std::fs::create_dir_all(dir)?;
    let config = ServeConfig {
        worker,
        worker_slots: SLOTS,
        worker_threads: 1,
        store_path: Some(dir.join("daemon-store.sqps")),
        ..ServeConfig::default()
    };
    Server::bind(config, &ServeAddr::Tcp("127.0.0.1:0".to_string()))
}

/// A running daemon: its address, control handle and accept-loop thread.
pub struct Daemon {
    pub addr: ServeAddr,
    pub handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    pub fn start(server: Server) -> io::Result<Daemon> {
        let addr = server.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread,
        })
    }

    /// Stops gracefully, waits for the accept loop, the sessions and the
    /// worker pool (whose runners reap every worker process and finish
    /// every store commit) to end, and returns the daemon's event log.
    pub fn stop(self) -> io::Result<Vec<EventRecord>> {
        self.handle.stop();
        self.thread
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))??;
        Ok(self.handle.events().records())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One log the store has never seen: queue, worker spawn, shard codec,
    /// persist append/commit/fsync, report render.
    Cold,
    /// A resubmission of logs this client already settled: store reads
    /// with no spawn, and a report over all of them.
    Warm,
}

/// Logs a warm job of the timed schedule resubmits at most: enough that its
/// report always exceeds the daemon's 8 KiB write buffer, so every warm
/// job meets the same write stall (see README.md).
pub const WARM_LOGS: usize = 16;

/// One settled job as the client saw it. Its report is kept as a digest
/// and checked against the in-process reference after the measured phase.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: Kind,
    pub logs: Vec<usize>,
    pub total_ns: u64,
    pub entries: u64,
    pub report_digest: u64,
}

/// What a client submits next.
pub enum Schedule {
    /// Until `deadline`: each job is cold with probability 1/3 (always
    /// while nothing has settled), taking the next unused log of `cold`;
    /// otherwise warm, resubmitting up to `WARM_LOGS` distinct logs this
    /// client already settled. Ends early when `cold` runs out.
    Timed {
        deadline: Instant,
        rng: u64,
        cold: VecDeque<usize>,
    },
    /// A fixed list of jobs.
    Fixed(VecDeque<(Kind, Vec<usize>)>),
}

/// splitmix64.
pub fn next_random(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Schedule {
    fn next(&mut self, settled: &[usize]) -> Option<(Kind, Vec<usize>)> {
        match self {
            Schedule::Fixed(jobs) => jobs.pop_front(),
            Schedule::Timed {
                deadline,
                rng,
                cold,
            } => {
                if Instant::now() >= *deadline {
                    return None;
                }
                if settled.is_empty() || next_random(rng).is_multiple_of(3) {
                    return cold.pop_front().map(|log| (Kind::Cold, vec![log]));
                }
                let want = settled.len().min(WARM_LOGS);
                let mut logs = Vec::with_capacity(want);
                while logs.len() < want {
                    let log = settled[next_random(rng) as usize % settled.len()];
                    if !logs.contains(&log) {
                        logs.push(log);
                    }
                }
                Some((Kind::Warm, logs))
            }
        }
    }
}

/// The result of driving the daemon.
#[derive(Debug, Default)]
pub struct Driven {
    pub samples: Vec<Sample>,
    pub elapsed: f64,
    /// Requests the clients sent other than status polls (submits and
    /// report fetches).
    pub non_status_requests: u64,
    pub threads_end: f64,
    pub fds_end: f64,
}

fn span_names(kind: Kind) -> [&'static str; 4] {
    match kind {
        Kind::Cold => [
            "serve.cold_job",
            "serve.cold_submit",
            "serve.cold_settle",
            "serve.cold_report_fetch",
        ],
        Kind::Warm => [
            "serve.warm_job",
            "serve.warm_submit",
            "serve.warm_settle",
            "serve.warm_report_fetch",
        ],
    }
}

struct ClientOutcome {
    samples: Vec<Sample>,
    checks: Checks,
    requests: u64,
    end: Instant,
}

fn client_loop(
    client_id: u64,
    addr: &ServeAddr,
    files: &[LogFile],
    mut schedule: Schedule,
    tracer: Option<&Tracer>,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        samples: Vec::new(),
        checks: Checks::default(),
        requests: 0,
        end: Instant::now(),
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(error) => {
            out.checks
                .check(false, || format!("client {client_id}: connect: {error}"));
            return out;
        }
    };
    let mut settled = Vec::new();
    let mut sequence = 0u64;
    while let Some((kind, logs)) = schedule.next(&settled) {
        sequence += 1;
        let job_id = client_id << 32 | sequence;
        let [job_name, submit_name, settle_name, fetch_name] = span_names(kind);
        let submitted: Vec<(String, String)> = logs
            .iter()
            .map(|&l| {
                (
                    files[l].label.clone(),
                    files[l].path.to_string_lossy().into_owned(),
                )
            })
            .collect();
        let start = Instant::now();
        let job_span = span(tracer, job_name, ROOT, job_id);
        let j = job_span.id();
        let outcome = (|| {
            let (job, _) = {
                let _s = span(tracer, submit_name, j, job_id);
                client.submit(Population::Unique, RecoveryPolicy::Auto, submitted)?
            };
            let status = {
                let _s = span(tracer, settle_name, j, job_id);
                client.wait_settled(job, SETTLE_TIMEOUT)?
            };
            let report = {
                let _s = span(tracer, fetch_name, j, job_id);
                client.report(job, true)?
            };
            Ok::<_, sparqlog_serve::ClientError>((status, report))
        })();
        drop(job_span);
        let total_ns = start.elapsed().as_nanos() as u64;
        out.requests += 2;
        let (status, report) = match outcome {
            Ok(settled_job) => settled_job,
            Err(error) => {
                out.checks
                    .check(false, || format!("{kind:?} job on logs {logs:?}: {error}"));
                break;
            }
        };
        let ok = status.phase == JobPhase::Complete && report.complete;
        out.checks.check(ok, || {
            format!(
                "{kind:?} job on logs {logs:?}: phase {:?} ({}), complete={}",
                status.phase, status.error, report.complete
            )
        });
        if ok {
            if kind == Kind::Cold {
                settled.extend_from_slice(&logs);
            }
            out.samples.push(Sample {
                kind,
                entries: logs.iter().map(|&l| files[l].lines).sum(),
                logs,
                total_ns,
                report_digest: crate::output_digest(&report.text),
            });
        }
    }
    out.end = Instant::now();
    out
}

/// Drives the daemon with one closed-loop client per schedule. Each job
/// must settle complete; its report is checked afterwards with [`verify`].
pub fn drive(
    daemon: &Daemon,
    files: &[LogFile],
    schedules: Vec<Schedule>,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Driven {
    let start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .into_iter()
            .enumerate()
            .map(|(i, schedule)| {
                let addr = &daemon.addr;
                scope.spawn(move || client_loop(i as u64 + 1, addr, files, schedule, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut driven = Driven::default();
    let mut end = start;
    for outcome in outcomes {
        checks.attempted += outcome.checks.attempted;
        checks.failed += outcome.checks.failed;
        driven.samples.extend(outcome.samples);
        driven.non_status_requests += outcome.requests;
        end = end.max(outcome.end);
    }
    driven.elapsed = (end - start).as_secs_f64();
    driven.threads_end = crate::stats::proc_self_count("task");
    driven.fds_end = crate::stats::proc_self_count("fd");
    driven
}

/// The in-process report over `logs`: the 1-worker reference analysis of
/// each log, in submission order, with their merged "Total" row.
pub fn expected_report(references: &[DatasetAnalysis], logs: &[usize]) -> String {
    let datasets = logs.iter().map(|&l| references[l].clone()).collect();
    report::full_report(&crate::inprocess::corpus_of(datasets))
}

/// Checks every settled job's report against the in-process reference.
pub fn verify(samples: &[Sample], references: &[DatasetAnalysis], checks: &mut Checks) {
    for sample in samples {
        let mut expected = Fnv::default();
        expected.update(expected_report(references, &sample.logs).as_bytes());
        checks.check(expected.0 == sample.report_digest, || {
            format!(
                "{:?} job on logs {:?}: report differs from the in-process one",
                sample.kind, sample.logs
            )
        });
    }
}

/// Splits `logs` between the clients for the traced sections of the
/// in-process workloads: each client submits each of its logs cold, then
/// each again warm.
pub fn fixed_schedules(logs: usize) -> Vec<Schedule> {
    (0..SLOTS)
        .map(|c| {
            let mine: Vec<usize> = (c..logs).step_by(SLOTS).collect();
            let cold = mine.iter().map(|&l| (Kind::Cold, vec![l]));
            let warm = mine.iter().map(|&l| (Kind::Warm, vec![l]));
            Schedule::Fixed(cold.chain(warm).collect())
        })
        .collect()
}

/// The `served-mixed` schedules: the pool is shuffled by the seed and dealt
/// round-robin to the clients, each with its own seeded cold/warm draws.
pub fn timed_schedules(logs: usize, seed: u64, seconds: f64) -> Vec<Schedule> {
    let mut state = seed ^ 0x5eed_5eed_5eed_5eed;
    let mut order: Vec<usize> = (0..logs).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, next_random(&mut state) as usize % (i + 1));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    (0..SLOTS)
        .map(|c| Schedule::Timed {
            deadline,
            rng: next_random(&mut state),
            cold: order.iter().copied().skip(c).step_by(SLOTS).collect(),
        })
        .collect()
}
