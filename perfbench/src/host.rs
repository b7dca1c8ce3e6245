//! Host fingerprint and process accounting read from `/proc`.

use std::fs;

/// What a run's absolute numbers are comparable across: core count and
/// CPU model. Ratios and shares are comparable on any host.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc={nproc} cpu=\"{model}\"")
}

/// Peak resident set size (`VmHWM`) of `pid` (`None` = this process) in
/// MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`).
/// Linux fixes it at 100 on the architectures it exposes to user space
/// (x86-64 and arm64 included), whatever the kernel's internal `HZ`.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of `pid` in seconds (`/proc/<pid>/stat`
/// fields 14 and 15).
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; the fields after it may not.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}
