//! Small measurement helpers: a seeded generator, percentiles, process
//! resource usage, Prometheus text parsing and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: a tiny, fully specified generator, so the benchmark's
/// scripts do not depend on any random-number crate's stream.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, used to fingerprint response bodies so the run keeps hashes,
/// not bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule; NaN
/// (printed as `null`) when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// CPU time (user + system, all threads) and high-water RSS of this
/// process.
pub struct Usage {
    pub cpu_s: f64,
    pub max_rss_mb: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = [0i64; 18];
    // SAFETY: on 64-bit Linux `struct rusage` is two `timeval`s (two
    // i64 each) followed by fourteen `long`s: exactly 18 i64, which is
    // the buffer passed. getrusage writes only that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    Usage {
        cpu_s: (ru[0] + ru[2]) as f64 + (ru[1] + ru[3]) as f64 / 1e6,
        // ru_maxrss is in KiB on Linux.
        max_rss_mb: ru[4] as f64 / 1024.0,
    }
}

/// Restricts this process, and every thread it starts later, to the
/// first CPU it may run on; returns that CPU. One connection in a closed
/// loop keeps at most one thread runnable at a time, so this takes no
/// parallelism from the measured path; what it removes is the
/// cross-CPU wake-up, whose cost on a small VM changes from run to run.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut [u64; 16]) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const [u64; 16]) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: the buffer is a 1024-bit `cpu_set_t` (128 bytes), the size
    // passed; pid 0 names the calling thread, and the kernel writes at
    // most `size` bytes.
    if unsafe { sched_getaffinity(0, 128, &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the 128-byte mask.
    (unsafe { sched_setaffinity(0, 128, &one) } == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    panic!("the serving benchmark drives the epoll front end and runs on 64-bit Linux only")
}

/// One scrape of `GET /metrics`: every sample line, keyed by the series
/// as printed (name plus label set).
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut m = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    m.insert(series.to_string(), v);
                }
            }
        }
        Scrape(m)
    }

    /// Sum over every series of metric `name` whose labels contain all of
    /// `labels` (each written `key="value"`).
    pub fn sum(&self, name: &str, labels: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let (n, rest) = series.split_once('{').unwrap_or((series.as_str(), ""));
                n == name && labels.iter().all(|l| rest.contains(l))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `self − before` for [`Scrape::sum`].
    pub fn delta(&self, before: &Scrape, name: &str, labels: &[&str]) -> f64 {
        self.sum(name, labels) - before.sum(name, labels)
    }
}

/// Named metric values with their units, in print order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn scrape_sums_matching_series() {
        let s = Scrape::parse(
            "# TYPE a counter\na{verdict=\"deny\"} 3\na{verdict=\"allow\"} 4\nb 1.5\n",
        );
        assert_eq!(s.sum("a", &[]), 7.0);
        assert_eq!(s.sum("a", &["verdict=\"deny\""]), 3.0);
        assert_eq!(s.sum("b", &[]), 1.5);
    }
}
