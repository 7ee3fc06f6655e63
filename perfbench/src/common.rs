//! Small helpers shared by the workloads: seeded numbers, percentiles,
//! failure accounting and peak memory.

use std::collections::BTreeMap;

/// splitmix64: the benchmark's one seeded number stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_A5C1_1F5E_ED00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Attempted and failed operations, with every distinct error text.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<String, u64>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        *self.errors.entry(what).or_default() += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (e, n) in other.errors {
            *self.errors.entry(e).or_default() += n;
        }
    }

    pub fn record<T, E: std::fmt::Debug>(&mut self, r: &Result<T, E>) -> bool {
        match r {
            Ok(_) => {
                self.ok();
                true
            }
            Err(e) => {
                self.fail(format!("{e:?}"));
                false
            }
        }
    }
}

/// A `kB` field of `/proc/self/status` (Linux), in KiB.
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set size now, in KiB.
pub fn rss_kib() -> u64 {
    proc_status_kib("VmRSS:").unwrap_or(0)
}

/// Peak resident set size of the process so far, in KiB.
pub fn peak_rss_kib() -> u64 {
    proc_status_kib("VmHWM:").unwrap_or(0)
}
