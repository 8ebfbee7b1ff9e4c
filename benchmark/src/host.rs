//! Host fingerprint and noise self-report: every result file says where
//! it was measured and how much of each phase the hypervisor took away.

use crate::json::Json;
use crate::pin::Pinning;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The option a sysfs file marks with brackets, e.g. `always [madvise] never`.
fn bracketed(text: &str) -> String {
    text.split_whitespace()
        .find_map(|w| w.strip_prefix('[')?.strip_suffix(']'))
        .unwrap_or("unknown")
        .to_string()
}

pub fn fingerprint(pin: &Pinning) -> Json {
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let hypervisor = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .is_some_and(|l| l.split_whitespace().any(|f| f == "hypervisor"));
    // Counted from cpuinfo: `available_parallelism` already reflects the
    // one-CPU mask this process pinned itself to.
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    Json::obj()
        .with("nproc", nproc)
        .with("allowed_cpus", pin.allowed.clone())
        .with("pinned_cpu", pin.main)
        .with("other_cpu", pin.other)
        .with(
            "pin_error",
            pin.error.clone().map_or(Json::Null, Json::from),
        )
        .with("cpu_model", model)
        .with("hypervisor", hypervisor)
        .with("kernel", read("/proc/sys/kernel/osrelease").trim())
        .with(
            "thp",
            bracketed(&read("/sys/kernel/mm/transparent_hugepage/enabled")),
        )
        .with(
            "loadavg_at_start",
            read("/proc/loadavg")
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(-1.0),
        )
}

/// `(steal, total)` jiffies of one CPU from `/proc/stat`.
fn cpu_jiffies(stat: &str, cpu: usize) -> Option<(u64, u64)> {
    let tag = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(&tag))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of the pinned CPU's time the hypervisor gave to someone else,
/// between [`StealProbe::start`] and [`StealProbe::share`].
pub struct StealProbe {
    cpu: usize,
    at_start: Option<(u64, u64)>,
}

impl StealProbe {
    pub fn start(cpu: usize) -> StealProbe {
        StealProbe {
            cpu,
            at_start: cpu_jiffies(&read("/proc/stat"), cpu),
        }
    }

    pub fn share(&self) -> f64 {
        let now = cpu_jiffies(&read("/proc/stat"), self.cpu);
        match (self.at_start, now) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// A `Vm*` line of `/proc/<pid>/status` in MiB; `None` once the
/// process is gone.
fn status_mib(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resident set of a process in MiB.
pub fn rss_mib(pid: u32) -> Option<f64> {
    status_mib(pid, "VmRSS:")
}

/// The most this process ever had resident, in MiB.
pub fn own_peak_rss_mib() -> f64 {
    status_mib(std::process::id(), "VmHWM:").unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_column_is_the_eighth() {
        let stat =
            "cpu  10 0 10 100 0 0 0 5 0 0\ncpu0 1 0 1 10 0 0 0 1 0 0\ncpu1 9 0 9 90 0 0 0 4 7 0\n";
        assert_eq!(cpu_jiffies(stat, 1), Some((4, 112)));
        assert_eq!(cpu_jiffies(stat, 2), None);
    }

    #[test]
    fn bracketed_option_is_found() {
        assert_eq!(bracketed("always [madvise] never\n"), "madvise");
        assert_eq!(bracketed(""), "unknown");
    }
}
