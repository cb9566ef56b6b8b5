//! Order statistics and host facts shared by every workload.

use std::time::Instant;

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
pub fn pctl(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    pctl(values, 0.5)
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, as (label, value).
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len() as f64;
    for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        if n * (1.0 - q) >= 10.0 {
            return (label, pctl(values, q));
        }
    }
    ("p50", pctl(values, 0.5))
}

/// Median of `reps` timings of `f`, in nanoseconds per unit of work
/// (`f` returns how many units it did).
pub fn time_median(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let units = f().max(1);
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&samples)
}

/// `VmRSS` and `VmHWM` of this process, in kB.
pub fn rss_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Which of the CPU features the field backends select on this host
/// advertises.
pub fn cpu_flags() -> Vec<&'static str> {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = info
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    ["pclmulqdq", "vpclmulqdq", "avx512f"]
        .into_iter()
        .filter(|f| flags.contains(f))
        .collect()
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
