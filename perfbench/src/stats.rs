//! Small measurement helpers: quantiles, the metric list the run prints,
//! the correctness ledger, and `/proc/self` readings.

use std::fmt::Write as _;

/// The `q` quantile of `values` (linear interpolation between closest
/// ranks); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds as milliseconds, from nanoseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One printed metric: its value, unit, and how many samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }
}

/// Correctness checks of one run: every check is an attempt; a failed one
/// is counted, described on stderr, and makes the run exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
        ok
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Non-finite values (no samples) are written as `null`.
pub fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
    .expect("write to string");
    for (i, m) in metrics.0.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        )
        .expect("write to string");
    }
    out.push_str("}}");
    out
}

/// 64-bit FNV-1a, used for the input digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Resets the process's resident-set high-water mark to the current RSS, so
/// the next [`peak_rss_mb`] covers only what runs after this call. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's resident-set high-water mark in MiB (worker child
/// processes are not included).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Entries in a `/proc/self` directory (threads under `task`, open file
/// descriptors under `fd`).
pub fn proc_self_count(dir: &str) -> f64 {
    std::fs::read_dir(format!("/proc/self/{dir}")).map_or(f64::NAN, |d| d.count() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
    }
}
