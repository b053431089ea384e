//! Host speed, measured with a fixed reference kernel.
//!
//! On a shared host the speed of this process drifts by 1.3–1.7x over
//! tens of seconds with the load of other tenants, so two runs of the
//! same code minutes apart disagree by more than any useful bound. The
//! reference kernel below (ordered-map churn plus an integer block
//! transform, std only, so no change to the repository moves it) slows
//! down with the workloads: measured in ~6 s windows alongside the
//! encoder and the cohort engine, it tracked both with a correlation of
//! 0.86–0.91, and dividing by it halved their drift. Timings sampled in
//! a run are therefore also reported in reference units: milliseconds
//! on a host where the kernel takes `NOMINAL_MS`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The kernel's time on a quiet moment of the 2-CPU host the benchmark
/// was built on; it only fixes the unit of the normalized figures.
pub const NOMINAL_MS: f64 = 14.0;

/// How often a pass samples the kernel between operations.
const EVERY: Duration = Duration::from_millis(250);

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut h = 7u64;
    for i in 0..60_000u64 {
        h = mix(h);
        map.insert(h % 200_000, i);
    }
    let mut sum = 0u64;
    for _ in 0..60_000 {
        h = mix(h);
        if let Some(v) = map.get(&(h % 200_000)) {
            sum = sum.wrapping_add(*v);
        }
    }
    let mut block = [0i32; 64];
    for r in 0..20_000usize {
        for k in 0..64 {
            block[k] = (block[(k * 7 + r) % 64] * 3 + k as i32) & 0xFFFF;
        }
        sum = sum.wrapping_add(block[r % 64] as u64);
    }
    sum
}

/// One timed run of the reference kernel, in ms.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    t0.elapsed().as_secs_f64() * 1e3
}

/// The kernel run on `threads` threads at once, in mean ms per thread:
/// a workload that keeps every CPU busy is slowed by whichever of them
/// the host slows, so its reference must sample all of them.
pub fn reference_ms_on(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_ms();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(reference_ms)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

/// Reference samples taken between the operations of a pass.
#[derive(Debug, Clone)]
pub struct Sampler {
    threads: usize,
    last: Instant,
    pub ref_ms: Vec<f64>,
    /// Wall time spent sampling, which the pass's wall time excludes.
    pub spent: Duration,
}

impl Sampler {
    /// Samples on `threads` threads, starting with one sample so every
    /// pass has at least one.
    pub fn new(threads: usize) -> Self {
        let t0 = Instant::now();
        let first = reference_ms_on(threads);
        Self {
            threads,
            last: Instant::now(),
            ref_ms: vec![first],
            spent: t0.elapsed(),
        }
    }

    /// Samples the kernel if `EVERY` has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            let t0 = Instant::now();
            self.ref_ms.push(reference_ms_on(self.threads));
            self.spent += t0.elapsed();
            self.last = Instant::now();
        }
    }
}
