//! The three workloads and their seeded inputs. Every input is generated
//! from the synthetic Table-1 profile (`sparqlog_synth::generate_corpus`)
//! and written to log files, one entry per line; the program under test
//! only ever sees those files.

use crate::stats::Fnv;
use sparqlog_synth::{generate_corpus, CorpusConfig};
use std::collections::HashSet;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// `table1-dup`: corpus scale before tiling.
const TABLE1_SCALE: f64 = 2.5e-4;
/// `table1-dup`: each log is written this many times in a row, so most
/// entries repeat a canonical form seen earlier in the same log.
const TABLE1_TILES: usize = 6;
/// `distinct-miss`: corpus scale before exact-text de-duplication.
const DISTINCT_SCALE: f64 = 1e-3;
/// `served-mixed`: corpus scale of the job pool.
const POOL_SCALE: f64 = 6e-4;
/// `served-mixed`: entries per pool log (one log per cold job).
const POOL_CHUNK: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Dup,
    DistinctMiss,
    ServedMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1Dup,
        Workload::DistinctMiss,
        Workload::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Dup => "table1-dup",
            Workload::DistinctMiss => "distinct-miss",
            Workload::ServedMixed => "served-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated log file.
#[derive(Debug, Clone)]
pub struct LogFile {
    pub label: String,
    pub path: PathBuf,
    /// Lines written (the Table-1 `total` the engine must count).
    pub lines: u64,
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub logs: Vec<LogFile>,
    pub bytes: u64,
    /// FNV-1a over every label and every byte written.
    pub digest: u64,
}

impl Inputs {
    pub fn lines(&self) -> u64 {
        self.logs.iter().map(|l| l.lines).sum()
    }
}

/// Generates the workload's inputs for `seed` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let scale = match workload {
        Workload::Table1Dup => TABLE1_SCALE,
        Workload::DistinctMiss => DISTINCT_SCALE,
        Workload::ServedMixed => POOL_SCALE,
    };
    let corpus = generate_corpus(CorpusConfig {
        scale,
        seed,
        max_entries_per_dataset: 0,
    });
    let mut out = Inputs {
        logs: Vec::new(),
        bytes: 0,
        digest: Fnv::default().0,
    };
    for log in &corpus.logs {
        let label = log.dataset.label();
        match workload {
            Workload::Table1Dup => {
                let tiled = (0..TABLE1_TILES).flat_map(|_| log.entries.iter());
                write_log(&mut out, dir, label.to_string(), tiled)?;
            }
            Workload::DistinctMiss => {
                let mut seen = HashSet::new();
                let first = log.entries.iter().filter(|e| seen.insert(e.as_str()));
                write_log(&mut out, dir, label.to_string(), first)?;
            }
            Workload::ServedMixed => {
                for (k, chunk) in log.entries.chunks(POOL_CHUNK).enumerate() {
                    write_log(&mut out, dir, format!("{label}#{k}"), chunk.iter())?;
                }
            }
        }
    }
    Ok(out)
}

fn write_log<'a>(
    out: &mut Inputs,
    dir: &Path,
    label: String,
    entries: impl Iterator<Item = &'a String>,
) -> io::Result<()> {
    let file_name: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("{:04}-{file_name}.log", out.logs.len()));
    let mut digest = Fnv(out.digest);
    digest.update(label.as_bytes());
    let mut writer = BufWriter::new(std::fs::File::create(&path)?);
    let mut lines = 0u64;
    for entry in entries {
        for bytes in [entry.as_bytes(), b"\n"] {
            writer.write_all(bytes)?;
            digest.update(bytes);
            out.bytes += bytes.len() as u64;
        }
        lines += 1 + entry.bytes().filter(|&b| b == b'\n').count() as u64;
    }
    writer.flush()?;
    out.digest = digest.0;
    out.logs.push(LogFile { label, path, lines });
    Ok(())
}
