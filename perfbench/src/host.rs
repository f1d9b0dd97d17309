//! Host CPU accounting. On a virtual machine the hypervisor can hand a
//! vCPU's time to other tenants ("steal"); a window in which much of it
//! was stolen measures the neighbours, not the program. A sampler thread
//! reads the system-wide counters from `/proc/stat` while a workload runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the sampler reads `/proc/stat`.
const PERIOD: Duration = Duration::from_millis(50);

/// `(steal, total)` CPU jiffies summed over every CPU, or `None` where
/// `/proc/stat` is missing.
fn read_stat() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Samples the host counters on its own thread until finished.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, u64, u64)>>,
}

impl StealSampler {
    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                if let Some((steal, total)) = read_stat() {
                    samples.push((Instant::now(), steal, total));
                }
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(PERIOD);
            }
        });
        StealSampler { stop, handle }
    }

    /// Stops sampling and returns the log.
    pub fn finish(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        StealLog(self.handle.join().unwrap_or_default())
    }
}

/// Timestamped `(steal, total)` samples.
#[derive(Debug, Clone, Default)]
pub struct StealLog(Vec<(Instant, u64, u64)>);

impl StealLog {
    /// Share of CPU time stolen between `from` and `to`, from the last
    /// sample at or before `from` to the first at or after `to`; `None`
    /// when the samples do not cover the interval.
    pub fn share(&self, from: Instant, to: Instant) -> Option<f64> {
        let a = self.0.iter().rev().find(|s| s.0 <= from)?;
        let b = self.0.iter().find(|s| s.0 >= to)?;
        let total = b.2.checked_sub(a.2)?;
        (total > 0).then(|| b.1.saturating_sub(a.1) as f64 / total as f64)
    }
}
