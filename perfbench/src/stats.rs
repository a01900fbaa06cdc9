//! Summary statistics for benchmark samples: median, quartiles, the tail
//! rule, and failure accounting.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every pass records at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones a reader recomputes from the
/// per-run values. With a single sample all three are that sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        // Python clamps j into 1..=n-1 so both neighbours exist.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A tail latency: the highest whole percentile that still has at least
/// [`Tail::MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (1..=100); 100 means too few samples for the rule,
    /// and the value is the maximum.
    pub percentile: u32,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples the tail was taken over.
    pub samples: usize,
}

impl Tail {
    pub const MIN_BEYOND: usize = 10;

    /// Applies the rule to `xs` by nearest rank: percentile `p` has rank
    /// `ceil(p·n/100)` and `n - rank` samples beyond it. The highest `p`
    /// with `n - rank >= 10` is `floor(100·(n-10)/n)`. With ten samples or
    /// fewer no percentile qualifies and the maximum is reported as p100.
    pub fn of(xs: &[f64]) -> Tail {
        assert!(!xs.is_empty(), "tail of no samples");
        let s = sorted(xs);
        let n = s.len();
        if n <= Self::MIN_BEYOND {
            return Tail {
                percentile: 100,
                value: s[n - 1],
                beyond: 0,
                samples: n,
            };
        }
        let p = 100 * (n - Self::MIN_BEYOND) / n;
        let rank = (p * n).div_ceil(100).max(1);
        Tail {
            percentile: p as u32,
            value: s[rank - 1],
            beyond: n - rank,
            samples: n,
        }
    }

    pub fn label(&self) -> String {
        format!(
            "p{} (n={}, {} beyond)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// Attempted / failed accounting for one run. Every unit of work (a
/// pipeline iteration, a daemon job) is one attempt; a refusal, an error,
/// a wrong terminal state or a digest mismatch makes it a failure. Checks
/// that cover the whole run (a ledger audit) add a failure when they fail,
/// capped so that `failed <= attempted` always holds.
#[derive(Debug, Default, Clone)]
pub struct Outcomes {
    attempted: u64,
    failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Outcomes {
    const KEEP_REASONS: usize = 8;

    /// Records one attempted unit; `Err` carries why it failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Records a failed run-wide check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            if self.failed < self.attempted {
                self.failed += 1;
            }
            self.keep(why);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.keep(why);
    }

    fn keep(&mut self, why: String) {
        if self.reasons.len() < Self::KEEP_REASONS {
            self.reasons.push(why);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// True when nothing failed, including any run-wide check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.reasons.is_empty() && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn rel_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90, 90.0, 10, 100)
        );

        let xs: Vec<f64> = (1..=55).map(f64::from).collect();
        let t = Tail::of(&xs);
        // floor(100·45/55) = 81; rank ceil(81·55/100) = 45.
        assert_eq!((t.percentile, t.value, t.beyond), (81, 45.0, 10));

        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (9, 1.0, 10));
    }

    #[test]
    fn tail_rule_is_the_highest_qualifying_percentile() {
        for n in 11..400usize {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = Tail::of(&xs);
            assert!(t.beyond >= Tail::MIN_BEYOND, "n={n}");
            let next = (t.percentile as usize + 1) * n;
            let next_beyond = n - next.div_ceil(100);
            assert!(
                next_beyond < Tail::MIN_BEYOND,
                "n={n}: p{} not highest",
                t.percentile
            );
        }
    }

    #[test]
    fn tail_with_few_samples_is_the_maximum() {
        let t = Tail::of(&[3.0, 9.0, 4.0]);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100, 9.0, 0, 3)
        );
        assert_eq!(t.label(), "p100 (n=3, 0 beyond)");
    }

    #[test]
    fn outcomes_count_failures_against_attempts() {
        let mut o = Outcomes::default();
        o.record(Ok(()));
        o.record(Err("refused".into()));
        o.record(Ok(()));
        o.record(Ok(()));
        assert_eq!((o.attempted(), o.failed()), (4, 1));
        assert_eq!(o.failed_frac(), 0.25);
        assert!(!o.correct());
        assert_eq!(o.reasons, vec!["refused".to_owned()]);
    }

    #[test]
    fn run_wide_check_failures_never_exceed_attempts() {
        let mut o = Outcomes::default();
        o.record(Err("digest".into()));
        o.check(Err("ledger".into()));
        assert_eq!((o.attempted(), o.failed()), (1, 1));
        assert!(!o.correct());

        let mut ok = Outcomes::default();
        ok.record(Ok(()));
        ok.check(Ok(()));
        assert!(ok.correct());
        assert_eq!(ok.failed_frac(), 0.0);
        assert!(
            !Outcomes::default().correct(),
            "nothing attempted is not a pass"
        );
    }
}
