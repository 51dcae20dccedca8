//! Order statistics over the timed repeats, and the process's own CPU
//! clock and peak-memory gauge.

/// Median, range and quartiles of one metric's timed samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// # Panics
    /// If `samples` is empty or holds a NaN — both are harness bugs.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let (q1, median, q3) = quartiles(&sorted);
        Self {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1,
            q3,
            n: sorted.len(),
        }
    }
}

/// Quartiles of a sorted slice by the exclusive method, the one
/// Python's `statistics.quantiles(values, n=4)` defaults to, so the
/// spreads printed here are the ones the benchmark's driver computes.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Population standard deviation.
pub fn sigma(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    var.sqrt()
}

/// Distance between the first and third quartile.
pub fn iqr(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = Summary::of(samples);
    s.q3 - s.q1
}

/// `struct timespec` of the 64-bit Linux targets this benchmark runs on.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system, every thread, exited ones included)
/// this process has consumed so far.
///
/// The same quantity as utime + stime of `/proc/self/stat`, read from
/// the process CPU clock because procfs reports it in 10 ms ticks: on a
/// 0.6 CPU-s operation that is a 1.7 % step, and ten runs can then read
/// the very same value.
pub fn process_cpu_s() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer
    // and keeps nothing; `now` is a live, writable, correctly laid out
    // `timespec` for x86-64 and aarch64 Linux (two 64-bit fields), the
    // targets the `target_pointer_width` check below admits.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perf_ledger reads procfs and the 64-bit Linux timespec layout");

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn procfs_gauges_read() {
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.02 {
            x = std::hint::black_box(x + 1);
        }
        assert!(process_cpu_s() > before);
    }
}
