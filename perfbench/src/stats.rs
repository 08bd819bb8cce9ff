//! Sample summaries: median and quartiles, computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them.

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// The median, reported as the metric's value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Stats {
    /// Summarizes `values`; an empty sample reads 0 with `n = 0`.
    pub fn of(values: &[f64]) -> Stats {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => Stats::single(0.0, 0),
            1 => Stats::single(v[0], 1),
            n => {
                let q = quartiles(&v);
                let median = if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                };
                Stats {
                    median,
                    q1: q[0],
                    q3: q[2],
                    n,
                }
            }
        }
    }

    /// A sample of `n` identical values (a count that repeats exactly).
    pub fn single(value: f64, n: usize) -> Stats {
        Stats {
            median: value,
            q1: value,
            q3: value,
            n,
        }
    }
}

/// The three cut points of the "exclusive" method, for a sorted sample
/// of at least two values.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Stats::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Stats::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Stats::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
