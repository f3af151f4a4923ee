//! Latency statistics over repeated query executions.

use std::time::Duration;

/// Summary statistics of a sample of durations, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Sample standard deviation (0 for n < 2).
    pub std_ms: f64,
    /// Minimum.
    pub min_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile (nearest-rank).
    pub p95_ms: f64,
    /// Maximum.
    pub max_ms: f64,
}

impl Stats {
    /// Computes statistics from a sample. Returns a zeroed struct for an
    /// empty sample.
    pub fn from_durations(samples: &[Duration]) -> Stats {
        if samples.is_empty() {
            return Stats {
                n: 0,
                mean_ms: 0.0,
                std_ms: 0.0,
                min_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                max_ms: 0.0,
            };
        }
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let n = ms.len();
        let mean = ms.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            ms.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let rank = |p: f64| -> f64 {
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            ms[idx]
        };
        Stats {
            n,
            mean_ms: mean,
            std_ms: var.sqrt(),
            min_ms: ms[0],
            p50_ms: rank(0.50),
            p95_ms: rank(0.95),
            max_ms: ms[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn basic_statistics() {
        let s = Stats::from_durations(&ms(&[10, 20, 30, 40, 50]));
        assert_eq!(s.n, 5);
        assert!((s.mean_ms - 30.0).abs() < 1e-9);
        assert!((s.min_ms - 10.0).abs() < 1e-9);
        assert!((s.max_ms - 50.0).abs() < 1e-9);
        assert!((s.p50_ms - 30.0).abs() < 1e-9);
        assert!((s.p95_ms - 50.0).abs() < 1e-9);
        // Sample std of 10..50 step 10 = sqrt(250) ≈ 15.81.
        assert!((s.std_ms - 250.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn single_sample() {
        let s = Stats::from_durations(&ms(&[7]));
        assert_eq!(s.n, 1);
        assert_eq!(s.std_ms, 0.0);
        assert_eq!(s.p50_ms, s.mean_ms);
    }

    #[test]
    fn empty_sample() {
        let s = Stats::from_durations(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn unsorted_input() {
        let s = Stats::from_durations(&ms(&[50, 10, 30]));
        assert_eq!(s.min_ms, 10.0);
        assert_eq!(s.max_ms, 50.0);
        assert_eq!(s.p50_ms, 30.0);
    }
}
