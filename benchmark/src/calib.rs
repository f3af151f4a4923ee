//! The estimator: a frozen reference kernel that says how slow the host
//! ran while a phase of a run was measured, host times divided by that,
//! and lower quartiles.
//!
//! On a shared 2-vCPU microVM identical code runs a tenth slower or
//! faster from one run to the next, for minutes at a time, and all of a
//! run's statements move together. The kernel is sampled once between
//! rounds (and before and after every repetition of set-up and
//! recovery), never inside the timed work: its memory part sweeps 16 MiB
//! and would take the core's caches from the statements around it. Once,
//! because a second sample straight after finds the 16 MiB where the
//! first left them and runs a third faster. A phase's host
//! factor is the geometric mean of the two parts' slow-downs against
//! [`REF_COMPUTE_MS`] and [`REF_MEMORY_MS`], each taken at the lower
//! quartile of the phase's samples, and every time the phase reports is a
//! lower quartile divided by it: host milliseconds become "reference"
//! milliseconds. The same quantile on both sides, so that a host that
//! was slow for part of a phase stretches both alike. What slows the
//! host for less than a round shows as a slow round, and the lower
//! quartile over rounds drops it. The README has the measurements this
//! was chosen by, and what was tried and dropped (per-sample bracketing,
//! a compute-only kernel).

use std::hint::black_box;
use std::time::Instant;

/// What the two parts of a kernel sample take on the reference host, in
/// ms. Frozen: changing them rescales every timing metric.
pub const REF_COMPUTE_MS: f64 = 1.05;
pub const REF_MEMORY_MS: f64 = 3.1;

const POINTS: usize = 512;
const COMPUTE_STEPS: usize = 112_000;
/// 16 MiB of links: several times what the core's own caches hold.
const LINKS: usize = 4 << 20;
const MEMORY_STEPS: usize = 6_000;

/// One cycle through `0..n` in a scrambled order (Sattolo's shuffle), as
/// "next" links: following them visits every index once.
fn one_cycle(n: usize, step: &mut impl FnMut() -> u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, step() as usize % i);
    }
    let mut next = vec![0u32; n];
    for w in 0..n {
        next[order[w] as usize] = order[(w + 1) % n];
    }
    next
}

/// The reference kernel, in two parts because a busy host slows the two
/// differently and the workloads lean on both. Compute: orientation
/// tests over 512 points (8 KiB, resident in the first-level cache),
/// each step's operands chosen by the previous step's result so that
/// steps cannot overlap. Memory: a walk along 16 MiB of scrambled links,
/// each load waiting for the one before and most of them missing the
/// core's caches (latency), then one pass over the same 16 MiB in order
/// (bandwidth).
pub struct Kernel {
    xy: [(f64, f64); POINTS],
    next: Vec<u32>,
    links: Vec<u32>,
}

impl Kernel {
    pub fn new() -> Kernel {
        // A fixed LCG: the kernel's inputs never change.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut xy = [(0.0, 0.0); POINTS];
        for p in &mut xy {
            *p = (
                (step() % 20_000) as f64 / 100.0 - 100.0,
                (step() % 20_000) as f64 / 100.0 - 100.0,
            );
        }
        Kernel { xy, next: one_cycle(POINTS, &mut step), links: one_cycle(LINKS, &mut step) }
    }

    /// Runs the compute part once and returns how long it took, in ms.
    pub fn compute(&self) -> f64 {
        let t0 = Instant::now();
        let (mut a, mut b, mut c) = (0usize, 1usize, 2usize);
        let mut turns = 0i64;
        for _ in 0..COMPUTE_STEPS {
            let (ax, ay) = self.xy[a];
            let (bx, by) = self.xy[b];
            let (cx, cy) = self.xy[c];
            let det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
            let left = det > 0.0;
            turns += i64::from(left);
            a = b;
            b = c;
            c = self.next[(c + usize::from(left)) % POINTS] as usize;
        }
        black_box(turns);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the memory part once and returns how long it took, in ms.
    fn memory(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..MEMORY_STEPS {
            at = self.links[at as usize];
        }
        let sum = self.links.iter().fold(at, |sum, link| sum.wrapping_add(*link));
        black_box(sum);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Runs both parts once: `(compute, memory)` in ms.
    pub fn sample(&self) -> (f64, f64) {
        (self.compute(), self.memory())
    }
}

/// How much slower than the reference host this one ran while the
/// kernel samples of `phase` were taken. Divide the phase's times by it.
pub fn host_factor(phase: &[(f64, f64)]) -> f64 {
    let compute: Vec<f64> = phase.iter().map(|s| s.0).collect();
    let memory: Vec<f64> = phase.iter().map(|s| s.1).collect();
    ((q1(&compute) / REF_COMPUTE_MS) * (q1(&memory) / REF_MEMORY_MS)).sqrt()
}

/// The `q`-quantile of `values` the way Python's
/// `statistics.quantiles(values, n=4)` places it (exclusive method), so
/// that the benchmark and whoever checks it agree on a quartile. No
/// values, no quantile: NaN, which no result line accepts.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if lo >= n {
                v[n - 1]
            } else {
                v[lo - 1] + frac * (v[lo] - v[lo - 1])
            }
        }
    }
}

/// Lower quartile.
pub fn q1(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (quantile(values, 0.75) - q1(values)) / m.abs()
    }
}

/// What one round of a workload cost on this host, before normalisation.
#[derive(Clone, Default)]
pub struct Round {
    /// Sum of the round's timed operations, ms.
    pub wall_ms: f64,
    /// Process CPU between the round's first and last operation, ms.
    pub cpu_ms: f64,
    /// Per class: summed time in ms and number of operations.
    pub class_ms: Vec<f64>,
    pub class_ops: Vec<u32>,
}

/// Times operations and files them by round and class.
pub struct Sampler {
    classes: usize,
    round_cpu_start: u64,
    rounds: Vec<Round>,
}

impl Sampler {
    pub fn new(classes: usize) -> Sampler {
        Sampler { classes, round_cpu_start: 0, rounds: Vec::new() }
    }

    /// Opens the next round. Untimed work done since the last round (a
    /// kernel sample, a cache drop) stays out of every sample.
    pub fn begin_round(&mut self) {
        self.rounds.push(Round {
            class_ms: vec![0.0; self.classes],
            class_ops: vec![0; self.classes],
            ..Round::default()
        });
        self.round_cpu_start = crate::host::process_cpu_ns();
    }

    /// Runs `op`, timing it as one operation of `class`.
    pub fn time<T>(&mut self, class: usize, op: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = op();
        let ms = t0.elapsed().as_nanos() as f64 / 1e6;
        let round = self.rounds.last_mut().expect("time() is called inside a round");
        round.wall_ms += ms;
        round.class_ms[class] += ms;
        round.class_ops[class] += 1;
        out
    }

    /// Closes the round.
    pub fn end_round(&mut self) {
        let cpu_ns = crate::host::process_cpu_ns() - self.round_cpu_start;
        self.rounds.last_mut().expect("a round is open").cpu_ms = cpu_ns as f64 / 1e6;
    }

    /// The rounds measured so far.
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(q1(&v), 1.5);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.5);
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let w = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(q1(&w), 12.5);
        assert_eq!(quantile(&w, 0.75), 37.5);
        assert_eq!(q1(&[7.0]), 7.0);
        assert!(q1(&[]).is_nan());
    }

    #[test]
    fn kernel_links_are_one_cycle() {
        let k = Kernel::new();
        for links in [&k.next, &k.links] {
            let mut seen = vec![false; links.len()];
            let mut at = 0usize;
            for _ in 0..links.len() {
                seen[at] = true;
                at = links[at] as usize;
            }
            assert!(seen.iter().all(|s| *s), "every index is visited once");
        }
        assert!(host_factor(&[k.sample(), k.sample()]) > 0.0);
    }

    #[test]
    fn sampler_files_operations_by_round_and_class() {
        let mut s = Sampler::new(2);
        s.begin_round();
        s.time(0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        s.time(1, || ());
        s.end_round();
        let r = &s.rounds()[0];
        assert_eq!(r.class_ops, vec![1, 1]);
        assert!(r.class_ms[0] > r.class_ms[1]);
        assert!((r.wall_ms - r.class_ms[0] - r.class_ms[1]).abs() < 1e-9);
        assert!(r.cpu_ms >= 0.0);
    }
}
