//! Small measurement helpers: order statistics, host speed, CPU pinning,
//! peak memory and the correctness ledger every workload reports into.

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of `samples`; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Number of samples strictly above the nearest-rank `q` quantile — the
/// count that says how well a tail percentile is supported.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Element-wise median over repetitions of the same items.
pub fn median_per_item(rounds: &[Vec<f64>]) -> Vec<f64> {
    let items = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..items)
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// [`calibration_ms`] on an uncontended 2.0 GHz Xeon vCPU, the host the
/// benchmark was tuned on.
const REFERENCE_CALIBRATION_MS: f64 = 1.9;

/// Wall time in ms of a fixed floating-point loop that calls no library
/// code. A loop that also hashed and read a 4 MB table tracked batch
/// slowdowns more closely within a run, but its readings drifted with the
/// host's load from one set of runs to the next (scaled medians 25% apart),
/// so the plain loop stays.
pub fn calibration_ms() -> f64 {
    use std::hint::black_box;
    let start = std::time::Instant::now();
    let mut x = black_box(1.0001f64);
    let mut acc = 0.0f64;
    for i in 0..300_000u64 {
        x = x * 1.000_000_1 + (i & 7) as f64 * 1e-9;
        acc += x.ln();
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// How fast the host runs right now relative to the reference host
/// (below 1 when slower). On shared cloud hosts each vCPU slows by up to
/// 1.5x for seconds at a time, independently of its sibling, so a run's
/// raw times spread by 20-30% from run to run; a time multiplied by the
/// speed of the same CPU measured next to it is what the same work takes
/// on the reference host, which is steady where raw times are not.
///
/// Call it only while no library code runs (the process is pinned to one
/// CPU, see [`pin_to_one_cpu`], so a busy service worker would slow the
/// loop and its own cost would be divided out).
pub fn host_speed() -> f64 {
    REFERENCE_CALIBRATION_MS / calibration_ms()
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on, so that the service worker runs on the CPU whose
/// speed [`host_speed`] measures. Returns that CPU, or `None` where
/// pinning is unavailable.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are plain glibc calls; the mask outlives the call and
    // its size is passed alongside it.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok()?;
        let mut mask = [0u64; 16];
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Correctness ledger: a run is correct until one check fails. The first
/// few failures are described on stderr; all of them are counted.
#[derive(Debug, Default)]
pub struct Checks {
    failures: usize,
}

impl Checks {
    /// Record one check; `what` is only rendered when the check fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.failures <= 10 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }

    /// Whether every recorded check passed.
    pub fn all_passed(&self) -> bool {
        self.failures == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(&v, 0.99), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_per_item_is_taken_per_position() {
        let rounds = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, f64::INFINITY],
            vec![9.0, 2.0, 6.0],
        ];
        assert_eq!(median_per_item(&rounds), vec![3.0, 2.0, 6.0]);
        assert!(median_per_item(&[]).is_empty());
    }

    #[test]
    fn calibration_takes_measurable_time() {
        assert!(calibration_ms() > 0.0);
        assert!(host_speed().is_finite());
    }

    /// Scaling must never hide a real change in the work: when the library
    /// does three times the work, the scaled median grows with the raw one.
    #[test]
    fn scaled_and_raw_times_move_together() {
        let time = |tables: usize| {
            let (mut raw, mut scaled) = (Vec::new(), Vec::new());
            for _ in 0..7 {
                let speed = host_speed();
                let t = std::time::Instant::now();
                std::hint::black_box(sato_tabular::corpus::default_corpus(tables, 5));
                let secs = t.elapsed().as_secs_f64();
                raw.push(secs);
                scaled.push(secs * (speed + host_speed()) / 2.0);
            }
            (median(&raw), median(&scaled))
        };
        let (raw_small, scaled_small) = time(100);
        let (raw_large, scaled_large) = time(300);
        assert!(raw_large > raw_small, "{raw_large} vs {raw_small}");
        assert!(
            scaled_large > scaled_small,
            "{scaled_large} vs {scaled_small}"
        );
    }

    #[test]
    fn pinning_keeps_the_thread_on_its_cpu() {
        std::thread::spawn(|| {
            if let Some(cpu) = pin_to_one_cpu() {
                let spawned = std::thread::spawn(pin_to_one_cpu).join().unwrap();
                assert_eq!(spawned, Some(cpu));
            }
        })
        .join()
        .unwrap();
    }
}
