//! The in-process engine: timed fused passes over the generated log files,
//! and the outside-timed stage ledger that rebuilds the same report from
//! the public functions of `parser`, `algebra`, `graph`, `paths` and `core`.

use crate::spans::{span, Tracer, ROOT};
use crate::stats::Checks;
use crate::workload::Inputs;
use sparqlog_algebra::{
    classify_fragments_from_walk_ref, projection_use_from_walk_ref, QueryFeatures, QueryWalkRef,
};
use sparqlog_core::corpus::{CorpusCounts, FingerprintBuildHasher};
use sparqlog_core::{
    analyze_streams_cached, report, AnalysisCache, CorpusAnalysis, DatasetAnalysis, ErrorTally,
    FileLogReader, FusedAnalysis, FusedOptions, LogReader, Population, QueryAnalysis,
};
use sparqlog_graph::StructuralReport;
use sparqlog_obs as obs;
use sparqlog_parser::intern::Interner;
use sparqlog_parser::{canonical_fingerprint_of_ref, parse_query_in, Arena};
use sparqlog_paths::PathTally;
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// Entries per read in the ledger, the fused engine's default batch.
const LEDGER_BATCH: usize = 512;

/// One fused pass: its result, its rendered full report, and its wall time
/// from opening the readers to the rendered report.
pub struct Pass {
    pub fused: FusedAnalysis,
    pub report: String,
    pub seconds: f64,
}

/// Opens the readers, runs the fused engine with `workers` threads against
/// `cache`, and renders the full report.
pub fn fused_pass(inputs: &Inputs, workers: usize, cache: &AnalysisCache) -> io::Result<Pass> {
    let start = Instant::now();
    let mut readers: Vec<Box<dyn LogReader>> = Vec::with_capacity(inputs.logs.len());
    for log in &inputs.logs {
        readers.push(Box::new(FileLogReader::open(
            log.label.as_str(),
            &log.path,
        )?));
    }
    let options = FusedOptions {
        workers,
        ..FusedOptions::default()
    };
    let fused = analyze_streams_cached(readers, Population::Unique, options, cache)?;
    let report = report::full_report(&fused.corpus);
    Ok(Pass {
        fused,
        report,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// The reference: one 1-worker pass with a fresh cache, plus the checks
/// that the engine counted every line the generator wrote.
pub fn reference(inputs: &Inputs, checks: &mut Checks) -> io::Result<Pass> {
    let pass = fused_pass(inputs, 1, &AnalysisCache::new())?;
    for (log, summary) in inputs.logs.iter().zip(&pass.fused.summaries) {
        checks.check(summary.counts.total == log.lines, || {
            format!(
                "{}: Table-1 total {} != {} lines written",
                log.label, summary.counts.total, log.lines
            )
        });
    }
    let total = pass.fused.corpus.combined.counts.total;
    checks.check(total == inputs.lines(), || {
        format!("Table-1 total {total} != {} lines written", inputs.lines())
    });
    Ok(pass)
}

/// Wall times of the measured phase, split by cache state.
#[derive(Debug, Default)]
pub struct Timed {
    pub cold_seconds: Vec<f64>,
    pub warm_seconds: Vec<f64>,
    pub elapsed: f64,
}

/// The measured phase: alternates a cold pass (fresh run-scoped cache) with
/// a warm pass against the cache the cold pass filled, until `seconds` have
/// passed (and at least two of each have run). Every report is checked
/// against the reference.
pub fn measure(
    inputs: &Inputs,
    workers: usize,
    seconds: f64,
    expected: &str,
    checks: &mut Checks,
) -> io::Result<Timed> {
    let start = Instant::now();
    let mut timed = Timed::default();
    while timed.cold_seconds.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let cache = AnalysisCache::new();
        for warm in [false, true] {
            let pass = fused_pass(inputs, workers, &cache)?;
            check_report(checks, expected, if warm { "warm" } else { "cold" }, &pass);
            let into = if warm {
                &mut timed.warm_seconds
            } else {
                &mut timed.cold_seconds
            };
            into.push(pass.seconds);
        }
    }
    timed.elapsed = start.elapsed().as_secs_f64();
    Ok(timed)
}

/// What one ledger pass counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct LedgerCounts {
    pub entries: u64,
    pub invalid: u64,
    pub forms_analysed: u64,
    pub forms_folded: u64,
}

/// The stage ledger: one thread reads, parses, fingerprints, probes,
/// analyses, folds and renders exactly as the fused engine does, with a
/// span around every call into a layer. Its report must equal the
/// reference, which proves the ledger timed the same work.
pub fn ledger_pass(
    inputs: &Inputs,
    tracer: &Tracer,
    job: u64,
    expected: &str,
    checks: &mut Checks,
) -> io::Result<LedgerCounts> {
    let t = Some(tracer);
    let pass = span(t, "ledger.pass", ROOT, job);
    let p = pass.id();
    let cache = AnalysisCache::new();
    let mut interner = Interner::new();
    let mut arena = Arena::new();
    let mut batch: Vec<String> = Vec::with_capacity(LEDGER_BATCH);
    let mut counts = LedgerCounts::default();
    let mut logs = Vec::with_capacity(inputs.logs.len());

    for log in &inputs.logs {
        let mut reader = {
            let _s = span(t, "core.read", p, job);
            FileLogReader::open(log.label.as_str(), &log.path)?
        };
        // Keyed like the engine's per-worker occurrence maps.
        let mut occurrences: HashMap<u128, u64, FingerprintBuildHasher> = HashMap::default();
        let mut errors = ErrorTally::default();
        let mut position = 0u64;
        loop {
            batch.clear();
            let read = {
                let _s = span(t, "core.read", p, job);
                reader.read_batch(&mut batch, LEDGER_BATCH)?
            };
            if read == 0 {
                break;
            }
            arena.reset();
            let parsed: Vec<_> = {
                let _s = span(t, "parser.parse", p, job);
                batch.iter().map(|e| parse_query_in(e, &arena)).collect()
            };
            let mut queries = Vec::with_capacity(parsed.len());
            for (offset, result) in parsed.into_iter().enumerate() {
                match result {
                    Ok(query) => queries.push(query),
                    Err(error) => {
                        counts.invalid += 1;
                        errors.record(error.kind, position + offset as u64);
                    }
                }
            }
            let fingerprints: Vec<u128> = {
                let _s = span(t, "parser.fingerprint", p, job);
                queries.iter().map(canonical_fingerprint_of_ref).collect()
            };
            let mut misses = Vec::new();
            {
                let _s = span(t, "core.cache_probe", p, job);
                for (i, &fingerprint) in fingerprints.iter().enumerate() {
                    let slot = occurrences.entry(fingerprint).or_insert(0);
                    if *slot == 0 && cache.get(fingerprint).is_none() {
                        misses.push(i);
                    }
                    *slot += 1;
                }
            }
            if !misses.is_empty() {
                let analysis = span(t, "core.query_analysis", p, job);
                let a = analysis.id();
                let (walks, fragments) = {
                    let _s = span(t, "algebra.walk", a, job);
                    let walks: Vec<QueryWalkRef> = misses
                        .iter()
                        .map(|&i| QueryWalkRef::of(&queries[i], &mut interner))
                        .collect();
                    let fragments: Vec<_> = misses
                        .iter()
                        .zip(&walks)
                        .map(|(&i, walk)| {
                            let query = &queries[i];
                            (
                                QueryFeatures::from_walk_ref(query, walk),
                                projection_use_from_walk_ref(query, walk, &mut interner),
                                classify_fragments_from_walk_ref(query, walk),
                            )
                        })
                        .collect();
                    (walks, fragments)
                };
                let structural: Vec<StructuralReport> = {
                    let _s = span(t, "graph.structure", a, job);
                    fragments
                        .iter()
                        .zip(&walks)
                        .map(|((_, _, report), walk)| {
                            StructuralReport::from_walk_interned(
                                *report,
                                walk.tree.as_ref(),
                                &mut interner,
                            )
                        })
                        .collect()
                };
                let paths: Vec<PathTally> = {
                    let _s = span(t, "paths.tally", a, job);
                    walks
                        .iter()
                        .map(|walk| {
                            let mut tally = PathTally::new();
                            for path in &walk.paths {
                                tally.add(&path.to_owned());
                            }
                            tally
                        })
                        .collect()
                };
                let records: Vec<(u128, QueryAnalysis)> = misses
                    .iter()
                    .zip(walks.iter().zip(fragments))
                    .zip(structural.into_iter().zip(paths))
                    .map(
                        |((&i, (walk, (features, projection, _))), (structural, paths))| {
                            let record = QueryAnalysis {
                                form: queries[i].form,
                                features,
                                projection,
                                has_subqueries: walk.ops.subqueries > 0,
                                paths,
                                structural,
                            };
                            (fingerprints[i], record)
                        },
                    )
                    .collect();
                drop(analysis);
                counts.forms_analysed += records.len() as u64;
                let _s = span(t, "core.cache_probe", p, job);
                for (fingerprint, record) in records {
                    cache.get_or_insert_with(fingerprint, || record);
                }
            }
            position += read as u64;
        }
        counts.entries += position;
        logs.push((log.label.clone(), position, occurrences, errors));
    }

    let corpus = {
        let _s = span(t, "core.fold", p, job);
        let mut datasets = Vec::with_capacity(logs.len());
        for (label, total, occurrences, errors) in logs {
            let mut dataset = DatasetAnalysis::default();
            let (mut valid, mut bodyless) = (0, 0);
            for (&fingerprint, &count) in &occurrences {
                let record = cache.get(fingerprint).expect("every parsed form is cached");
                valid += count;
                if !record.features.has_body {
                    bodyless += count;
                }
                dataset.add_times(&record, 1);
            }
            counts.forms_folded += occurrences.len() as u64;
            dataset.label = label;
            dataset.errors = errors;
            dataset.counts = CorpusCounts {
                total,
                valid,
                unique: occurrences.len() as u64,
                bodyless,
            };
            datasets.push(dataset);
        }
        corpus_of(datasets)
    };
    let text = {
        let _s = span(t, "core.report", p, job);
        report::full_report(&corpus)
    };
    checks.check(text == expected, || {
        "ledger report differs from the reference".to_string()
    });
    Ok(counts)
}

/// A corpus of per-log analyses with their merged "Total" row, as every
/// engine assembles it.
pub fn corpus_of(datasets: Vec<DatasetAnalysis>) -> CorpusAnalysis {
    let mut combined = DatasetAnalysis {
        label: "Total".to_string(),
        ..DatasetAnalysis::default()
    };
    for dataset in &datasets {
        combined.merge(dataset);
    }
    CorpusAnalysis { datasets, combined }
}

/// Spans of the ledger's stages, in pipeline order.
pub const LEDGER_STAGES: [&str; 10] = [
    "core.read",
    "parser.parse",
    "parser.fingerprint",
    "core.cache_probe",
    "core.query_analysis",
    "algebra.walk",
    "graph.structure",
    "paths.tally",
    "core.fold",
    "core.report",
];

/// Results of the traced in-process section.
#[derive(Debug, Default)]
pub struct Traced {
    pub rate_1w: Vec<f64>,
    pub rate_2w_traced: Vec<f64>,
    /// Per round, from passes run next to each other so that machine drift
    /// cancels: 2-worker over 1-worker rate, 1 − traced over untraced
    /// 2-worker rate, and 1 − the ledger's stage self times over the
    /// 1-worker wall time.
    pub scaling_2w: Vec<f64>,
    pub overhead_share: Vec<f64>,
    pub residual_share: Vec<f64>,
    /// `pipeline_read_us` / `pipeline_parse_us` sums of obs-enabled
    /// 1-worker passes, in microseconds, and the entries they covered.
    pub obs_read_us: u64,
    pub obs_parse_us: u64,
    pub obs_entries: u64,
    pub ledger: LedgerCounts,
    pub ledger_reps: u64,
    pub hit_ratio: f64,
    pub distinct_forms: u64,
}

fn delta_counter(before: &obs::MetricsSnapshot, after: &obs::MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

fn delta_sum(before: &obs::MetricsSnapshot, after: &obs::MetricsSnapshot, name: &str) -> u64 {
    let sum = |s: &obs::MetricsSnapshot| s.histogram(name).map_or(0, |h| h.sum);
    sum(after) - sum(before)
}

/// The traced in-process section, in rounds until `seconds` have passed
/// (at least two). Each round runs an untraced 1-worker pass, an untraced
/// and a traced 2-worker pass (obs on, span around the call; their order
/// alternates between rounds so drift does not land on one side), an
/// obs-enabled 1-worker pass whose registry is read next to the ledger,
/// and one ledger pass.
pub fn traced(
    inputs: &Inputs,
    seconds: f64,
    tracer: &Tracer,
    expected: &str,
    checks: &mut Checks,
) -> io::Result<Traced> {
    let entries = inputs.lines() as f64;
    let mut out = Traced::default();
    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 || start.elapsed().as_secs_f64() < seconds {
        round += 1;
        obs::set_enabled(false);
        let one = fused_pass(inputs, 1, &AnalysisCache::new())?;
        out.rate_1w.push(entries / one.seconds);
        check_report(checks, expected, "1-worker", &one);
        let (mut untraced_rate, mut traced_rate) = (0.0, 0.0);

        let order = if round.is_multiple_of(2) {
            [true, false]
        } else {
            [false, true]
        };
        for traced in order {
            obs::set_enabled(traced);
            if !traced {
                let two = fused_pass(inputs, 2, &AnalysisCache::new())?;
                untraced_rate = entries / two.seconds;
                check_report(checks, expected, "2-worker", &two);
                continue;
            }
            let before = obs::global().snapshot();
            let pass = {
                let _s = span(Some(tracer), "core.fused_pass", ROOT, round);
                fused_pass(inputs, 2, &AnalysisCache::new())?
            };
            let after = obs::global().snapshot();
            traced_rate = entries / pass.seconds;
            let cache = pass.fused.stats.cache.unwrap_or_default();
            let misses = delta_counter(&before, &after, "cache_misses_total");
            checks.check(misses == cache.misses, || {
                format!(
                    "obs cache_misses_total {misses} != engine cache misses {}",
                    cache.misses
                )
            });
            out.hit_ratio = cache.hit_rate();
            out.distinct_forms = pass.fused.fused.distinct_forms;
            check_report(checks, expected, "traced 2-worker", &pass);
        }

        obs::set_enabled(true);
        let before = obs::global().snapshot();
        let observed = fused_pass(inputs, 1, &AnalysisCache::new())?;
        let after = obs::global().snapshot();
        out.obs_read_us += delta_sum(&before, &after, "pipeline_read_us");
        out.obs_parse_us += delta_sum(&before, &after, "pipeline_parse_us");
        out.obs_entries += delta_counter(&before, &after, "pipeline_entries_total");
        check_report(checks, expected, "obs-enabled 1-worker", &observed);

        out.rate_2w_traced.push(traced_rate);
        out.scaling_2w.push(untraced_rate / (entries / one.seconds));
        out.overhead_share.push(1.0 - traced_rate / untraced_rate);

        let before = tracer.self_times();
        out.ledger = ledger_pass(inputs, tracer, round, expected, checks)?;
        out.ledger_reps += 1;
        let after = tracer.self_times();
        let stage_ns = |stage| after.get(stage).unwrap_or(&0) - before.get(stage).unwrap_or(&0);
        let staged_ns: u64 = LEDGER_STAGES.iter().map(stage_ns).sum();
        out.residual_share
            .push(1.0 - staged_ns as f64 / (one.seconds * 1e9));
    }
    Ok(out)
}

fn check_report(checks: &mut Checks, expected: &str, what: &str, pass: &Pass) {
    checks.check(crate::same_output(expected, &pass.report), || {
        format!("{what} pass report differs from the reference")
    });
}
