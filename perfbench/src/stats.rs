//! Order statistics and process counters shared by the phases and the layer timers.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency together with the percentile it really is and the sample count
/// it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile of that rank, in `(0, 100]`: 99.0 when the sample holds at
    /// least 1000 values, lower when it is too small to support p99.
    pub percentile: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The p99 of `sorted` (nearest rank), or — when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond p99 — the highest percentile that has at
/// least that many samples beyond it. `None` when no rank qualifies (at most
/// [`TAIL_MIN_BEYOND`] samples). `sorted` must be in ascending order.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    // Nearest rank of p99 (1-based `ceil(99 n / 100)`, in integers so no float
    // rounding moves the rank), as a 0-based index.
    let p99_index = (99 * n).div_ceil(100) - 1;
    // The sample at index i has n - 1 - i samples beyond it.
    let index = p99_index.min(n - 1 - TAIL_MIN_BEYOND);
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Median of an ascending slice (mean of the middle pair for even lengths).
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// Median of an unordered sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// Linux `USER_HZ`: the unit of the CPU-time fields in `/proc/*/stat`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` line.
fn stat_cpu_s(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    // The command name (field 2) may contain spaces; count fields after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds used so far by the whole process, every thread included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat").unwrap_or(0.0)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat").unwrap_or(0.0)
}

/// The host's CPU time counters (`/proc/stat`, all CPUs), for telling how much
/// of an interval the hypervisor gave to other guests.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// Reads the counters now (zeros where `/proc/stat` is unavailable).
    pub fn now() -> Self {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            // user nice system idle iowait irq softirq steal ...
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of the CPU time since `earlier` that was stolen by the host.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// A memory figure of the process's `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(key))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size of the process now, in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).expect("eleven samples leave ten beyond the first");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn tail_is_p99_from_one_thousand_samples() {
        // 1000 samples: p99 is rank 990, with exactly ten samples beyond it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        // 999 samples: p99 would be rank 990, leaving nine beyond, so the rule
        // steps down one rank.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.value, 989.0);
        assert!(t.percentile < 99.0);
        // 1001 samples: p99 is rank 991, ten beyond, unchanged by the rule.
        let t = tail(&ramp(1001)).unwrap();
        assert_eq!(t.value, 991.0);
        assert!((t.percentile - 100.0 * 991.0 / 1001.0).abs() < 1e-9);
    }

    #[test]
    fn tail_stays_at_p99_for_large_samples() {
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!(t.value, 99_000.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 100_000);
    }

    #[test]
    fn small_samples_report_the_highest_supported_percentile() {
        // 100 samples: the 90th value is the highest with ten beyond it.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn steal_share_is_a_share() {
        let earlier = HostTicks::now();
        let share = HostTicks::now().steal_share_since(&earlier);
        assert!((0.0..=1.0).contains(&share));
        assert_eq!(
            HostTicks::default().steal_share_since(&HostTicks::default()),
            0.0
        );
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s() >= 0.0);
        assert!(rss_peak_mib() > 0.0);
        assert!(rss_mib() > 0.0);
    }
}
