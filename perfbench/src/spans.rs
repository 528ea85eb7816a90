//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start and an end (nanoseconds since the
//! tracer's origin), the span that caused it, and the job it belongs to.
//! Spans are kept in memory while the run lasts and written out as one
//! tab-separated file at the end; a layer's self time is derived from them.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The id of a recorded span; `ROOT` is "no parent".
pub type SpanId = usize;

/// Parent id of top-level spans.
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Record {
    name: &'static str,
    parent: SpanId,
    job: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span store. `None` tracers (untraced runs) record nothing and never
/// read the clock on behalf of a span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    records: Mutex<Vec<Record>>,
}

/// An open span; closing it (or dropping it) stamps its end.
#[must_use]
pub struct Span<'t> {
    tracer: Option<&'t Tracer>,
    id: SpanId,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut records = self.records.lock().expect("span store");
        records.push(Record {
            name,
            parent,
            job,
            start_ns,
            end_ns: start_ns,
        });
        records.len() - 1
    }

    fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.records.lock().expect("span store")[id].end_ns = end_ns;
    }

    /// Total self time per span name, in nanoseconds: each span's duration
    /// minus the part of it that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let records = self.records.lock().expect("span store");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); records.len()];
        for record in records.iter() {
            if record.parent != ROOT {
                children[record.parent].push((record.start_ns, record.end_ns));
            }
        }
        let mut totals = BTreeMap::new();
        for (record, kids) in records.iter().zip(&mut children) {
            let covered = covered_ns(kids, record.start_ns, record.end_ns);
            *totals.entry(record.name).or_insert(0) +=
                (record.end_ns - record.start_ns).saturating_sub(covered);
        }
        totals
    }

    /// Durations in nanoseconds of every span with this name, in start order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let records = self.records.lock().expect("span store");
        records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.end_ns - r.start_ns)
            .collect()
    }

    /// How many spans were recorded.
    pub fn len(&self) -> usize {
        self.records.lock().expect("span store").len()
    }

    /// Writes every span as `id parent job name start_ns end_ns` lines
    /// (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let records = self.records.lock().expect("span store");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tjob\tname\tstart_ns\tend_ns")?;
        for (id, r) in records.iter().enumerate() {
            let parent = if r.parent == ROOT {
                "-".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                r.job, r.name, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end]` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Opens a span on `tracer`, if there is one.
pub fn span<'t>(
    tracer: Option<&'t Tracer>,
    name: &'static str,
    parent: SpanId,
    job: u64,
) -> Span<'t> {
    let id = tracer.map_or(ROOT, |t| t.open(name, parent, job));
    Span { tracer, id }
}

impl Span<'_> {
    /// This span's id, to pass as the parent of the spans it causes.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            tracer.close(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut kids = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered_ns(&mut kids, 0, 45), 25);
    }
}
