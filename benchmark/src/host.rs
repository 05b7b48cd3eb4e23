//! What the harness reads from the host: memory high-water mark, CPU time,
//! context switches (all from `/proc`, so no foreign calls), and the
//! STREAM-style bandwidth probe that gives scans a roofline to stand under.

use std::time::Instant;

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU time of the whole process so far, milliseconds.
/// `/proc/self/stat` counts in clock ticks, 100 per second on Linux.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after the closing
    // parenthesis are fixed: utime and stime are the 12th and 13th of them.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

/// Voluntary context switches summed over the live threads of the process.
/// A thread that has exited takes its count with it, so take both readings
/// of a delta while the same threads are alive.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| {
            let path = t.path().join("status");
            proc_field(path.to_str()?, "voluntary_ctxt_switches:")
        })
        .sum()
}

/// STREAM-style triad `a[i] = b[i] + s * c[i]` over arrays far larger than
/// the last-level cache, one thread per core (the scans it is compared with
/// run at `workers = 2`). Returns the best of `reps` in GB/s, counting the
/// three arrays once each as STREAM does.
pub fn stream_triad_gb_s(threads: usize, reps: usize) -> f64 {
    const N: usize = 8 << 20; // 3 arrays x 64 MiB per thread
    let mut arrays: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..threads)
        .map(|t| (vec![0.0; N], vec![1.0 + t as f64; N], vec![2.0; N]))
        .collect();
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let s = 3.0 + rep as f64;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (a, b, c) in arrays.iter_mut() {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                        *a = *b + s * *c;
                    }
                    std::hint::black_box(&a);
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (threads * 3 * N * 8) as f64 / 1e9 / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
        let before = voluntary_ctx_switches();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(voluntary_ctx_switches() >= before);
    }
}
