//! What the host was doing while the benchmark ran: core count, a fixed
//! calibration kernel, stolen time, and this process's CPU time and peak
//! memory. All of it is read from `/proc`; on a host without `/proc` the
//! readings are 0 and the timings stand on their own.

use std::time::Instant;

/// Cores available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed single-thread kernel: eight dependent-chain dot products over
/// 64 KiB, 200 passes. Reported (quiet decile of 11 repeats, ms) so a
/// reader can tell a slow host from slow code.
pub fn calib_ms() -> f64 {
    let a: Vec<f64> = (0..8192).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let trials: Vec<f64> = (0..11)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = [0.0f64; 8];
            for pass in 0..200 {
                let scale = 1.0 + pass as f64 * 1e-9;
                for chunk in a.chunks_exact(8) {
                    for (s, x) in acc.iter_mut().zip(chunk) {
                        *s += x * scale;
                    }
                }
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::quiet_time(&trials)
}

/// `(steal, total)` jiffies summed over all cores since boot.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the first eight add up.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of all CPU time since `since` that the hypervisor gave away.
pub fn steal_share(since: (u64, u64)) -> f64 {
    let now = cpu_jiffies();
    let total = now.1.saturating_sub(since.1);
    if total == 0 {
        return 0.0;
    }
    now.0.saturating_sub(since.0) as f64 / total as f64
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are positional: utime and stime are the 12th
    // and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    // USER_HZ is 100 on every Linux this runs on.
    (utime + stime) / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_on_linux() {
        assert!(cpus() >= 1);
        assert!(calib_ms() > 0.0);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 1.0);
            let before = cpu_jiffies();
            assert!(before.1 > 0);
            let share = steal_share(before);
            assert!((0.0..=1.0).contains(&share));
            // Burn a little CPU; the reading must not go backwards.
            let c0 = process_cpu_s();
            let _ = calib_ms();
            assert!(process_cpu_s() >= c0);
        }
    }
}
