//! Sample statistics and the host record printed with every run.

use std::time::Instant;

/// Nearest-rank percentile of `samples` (`q` in `0..=1`); `NaN` when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Aggregate CPU counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// Steal time between two [`cpu_ticks`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// A fixed nominal [`Reference`] pass, near the fastest passes seen on a
/// 2-vCPU shared host (run medians there: 0.34–0.52 ms). End-to-end
/// times are reported at this host speed: multiplied by
/// `REF_NOMINAL_MS / (the run's median pass)`.
pub const REF_NOMINAL_MS: f64 = 0.3;

/// A fixed compute kernel in benchmark code, run by the client thread
/// after every op, outside every timed span, so the run records how
/// fast the host was while it measured. A pass sorts 8k integers,
/// follows 30k links through a random 2 MiB table and copies 512 KiB.
/// It runs twice per sample and only the second run is timed: the first
/// brings its data back into cache, so the timed run does not depend on
/// how much of the cache the program's last op used.
pub struct Reference {
    links: Vec<u32>,
    block: Vec<u64>,
    pub samples: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        let n = 1u32 << 19;
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let links = (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((x >> 33) as u32) & (n - 1)
            })
            .collect();
        Reference {
            links,
            block: (0..65_536).collect(),
            samples: Vec::new(),
        }
    }
}

impl Reference {
    fn pass(&self) -> f64 {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut v: Vec<u64> = (0..8_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        std::hint::black_box(v.iter().fold(0u64, |a, &b| a.rotate_left(5) ^ b));
        let mut at = 0u32;
        for _ in 0..30_000 {
            at = self.links[at as usize];
        }
        std::hint::black_box(at);
        std::hint::black_box(self.block.clone());
        ms_since(t)
    }

    /// Runs the kernel once untimed and once timed; keeps the timing.
    pub fn sample(&mut self) {
        self.pass();
        let ms = self.pass();
        self.samples.push(ms);
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// The factor that puts this run's times at the nominal host speed.
    pub fn scale(&self) -> f64 {
        let m = self.median_ms();
        if m.is_finite() && m > 0.0 {
            REF_NOMINAL_MS / m
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_scales_times_to_the_nominal_host_speed() {
        let mut r = Reference::default();
        assert_eq!(r.scale(), 1.0, "no samples, no scaling");
        r.samples = vec![REF_NOMINAL_MS * 2.0; 3];
        assert_eq!(r.scale(), 0.5, "a host twice as slow halves the times");
        r.samples.clear();
        r.sample();
        assert!(r.samples.len() == 1 && r.scale().is_finite() && r.scale() > 0.0);
    }
}
