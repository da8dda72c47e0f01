//! Theorem 1 verification.
//!
//! The paper's Theorem 1: if `S_i` is known at `t_i` (guaranteed by
//! `K ≥ 1`) and every selected rate satisfies
//! `r_L(0) ≤ r_i ≤ r_U(0)` (paper eqs. 5–6), then for every picture
//!
//! 1. `delay_i ≤ D` (eq. 7),
//! 2. `t_{i+1} ≤ i·τ + D` (eq. 8 — the lower bounds stay well defined),
//! 3. `t_{i+1} = d_i` (eq. 9 — continuous service).
//!
//! [`check_theorem1`] audits a finished [`SmoothingResult`] against all
//! of these, independently of the algorithm that produced it, so property
//! tests can hammer the implementation and catch any drift from the
//! theorem. The rate bounds it checks against are recomputed from the
//! trace's sizes ([`theorem1_bounds`]), not taken from the smoother.

use crate::smoother::{theorem1_bounds, SmoothingResult, TIME_EPS};
use serde::{Deserialize, Serialize};

/// Outcome of auditing one run against Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Theorem1Report {
    /// Number of pictures audited.
    pub pictures: usize,
    /// Pictures with `delay > D` (eq. 7 failures).
    pub delay_violations: usize,
    /// Largest observed delay.
    pub max_delay: f64,
    /// Pictures where `t_{i+1} > i·τ + D` (eq. 8 failures).
    pub start_bound_violations: usize,
    /// `true` if `t_{i+1} = d_i` throughout (eq. 9).
    pub continuous_service: bool,
    /// Pictures whose selected rate fell outside `[r_L(0), r_U(0)]`
    /// (hypothesis failures — should be zero for every built-in policy).
    pub rate_bound_violations: usize,
    /// Pictures whose last bit departed before the picture fully arrived
    /// (buffer underflow; possible only for `K = 0`).
    pub underflows: usize,
}

impl Theorem1Report {
    /// `true` when every property the theorem promises holds.
    pub fn holds(&self) -> bool {
        self.delay_violations == 0
            && self.start_bound_violations == 0
            && self.continuous_service
            && self.rate_bound_violations == 0
            && self.underflows == 0
    }
}

/// Does Theorem 1 apply to these parameters? (`K ≥ 1` and eq. (1).)
pub fn theorem_applies(result: &SmoothingResult) -> bool {
    result.params.k >= 1 && result.params.is_feasible()
}

/// Audits a run over a trace with picture sizes `sizes` (bits, display
/// order) against Theorem 1 (see module docs).
///
/// Relative tolerance: rates are compared with a `1e-9` relative margin,
/// times with [`TIME_EPS`] — far finer than anything the figures resolve.
///
/// # Panics
///
/// If a scheduled picture's index is out of range of `sizes`.
pub fn check_theorem1(result: &SmoothingResult, sizes: &[u64]) -> Theorem1Report {
    let p = &result.params;
    let tau = p.tau;
    let mut delay_violations = 0;
    let mut start_bound_violations = 0;
    let mut rate_bound_violations = 0;
    let mut max_delay = 0.0f64;

    for (idx, pic) in result.schedule.iter().enumerate() {
        let delay = pic.delay(tau);
        max_delay = max_delay.max(delay);
        if delay > p.delay_bound + TIME_EPS {
            delay_violations += 1;
        }
        // eq. (8): the *next* start time is bounded; audit via this
        // picture's start: t_i <= (i-1)·tau + D, i.e. 0-based
        // t_i <= i·tau + D − tau... the paper's (8) in 0-based indexing
        // reads t_i ≤ (i−1)·τ + D for i ≥ 1 and t_0 = K·τ ≤ D (eq. 1).
        let bound = if idx == 0 {
            p.delay_bound
        } else {
            (idx as f64 - 1.0) * tau + p.delay_bound
        };
        if pic.start > bound + TIME_EPS {
            start_bound_violations += 1;
        }
        let (lower0, upper0) = theorem1_bounds(p, pic.index, pic.start, sizes[pic.index]);
        let tol = 1e-9 * pic.rate.max(1.0);
        if pic.rate < lower0 - tol || pic.rate > upper0 + tol {
            rate_bound_violations += 1;
        }
    }

    Theorem1Report {
        pictures: result.schedule.len(),
        delay_violations,
        max_delay,
        start_bound_violations,
        continuous_service: result.continuous_service(),
        rate_bound_violations,
        underflows: result.underflows(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SmootherParams;
    use crate::smoother::smooth;
    use smooth_mpeg::{GopPattern, PictureType, Resolution};
    use smooth_trace::VideoTrace;

    const TAU: f64 = 1.0 / 30.0;

    fn trace(n: usize) -> VideoTrace {
        let pattern = GopPattern::new(3, 9).unwrap();
        let sizes: Vec<u64> = (0..n)
            .map(|i| match pattern.type_at(i) {
                PictureType::I => 210_000,
                PictureType::P => 95_000,
                PictureType::B => 22_000,
            })
            .collect();
        VideoTrace::new("t", pattern, Resolution::VGA, 30.0, sizes).unwrap()
    }

    #[test]
    fn theorem_holds_for_k_ge_1() {
        let t = trace(90);
        for k in 1..=9 {
            let p = SmootherParams::constant_slack(k, 9, TAU);
            let report = check_theorem1(&smooth(&t, p), &t.sizes);
            assert!(report.holds(), "K={k}: {report:?}");
        }
    }

    #[test]
    fn theorem_applies_predicate() {
        let t = trace(18);
        let ok = smooth(&t, SmootherParams::at_30fps(0.2, 1, 9).unwrap());
        assert!(theorem_applies(&ok));
        let k0 = smooth(&t, SmootherParams::new_unchecked(0.2, 0, 9, TAU));
        assert!(!theorem_applies(&k0));
    }

    #[test]
    fn k0_report_shows_what_broke() {
        // K=0 with razor-thin slack: the theorem's guarantee is absent and
        // the audit must catch real failures rather than claim success.
        let pattern = GopPattern::new(3, 9).unwrap();
        let mut sizes = vec![4_000u64; 27];
        for (i, s) in sizes.iter_mut().enumerate() {
            if pattern.type_at(i) == PictureType::I {
                *s = 500_000;
            }
        }
        let t = VideoTrace::new("spiky", pattern, Resolution::VGA, 30.0, sizes).unwrap();
        let p = SmootherParams::new_unchecked(0.034, 0, 9, TAU);
        let report = check_theorem1(&smooth(&t, p), &t.sizes);
        assert!(!report.holds());
        assert!(report.delay_violations > 0);
    }

    #[test]
    fn rate_outside_recomputed_bounds_is_caught() {
        // The bounds come from the trace, not from the schedule: a rate
        // moved outside [r_L(0), r_U(0)] after the fact is a hypothesis
        // failure even though every other property still holds.
        let t = trace(45);
        let mut r = smooth(&t, SmootherParams::at_30fps(0.15, 1, 9).unwrap());
        assert_eq!(check_theorem1(&r, &t.sizes).rate_bound_violations, 0);
        let p = r.schedule[20];
        let (lower0, _) = crate::theorem1_bounds(&r.params, p.index, p.start, t.sizes[p.index]);
        r.schedule[20].rate = 0.5 * lower0;
        let report = check_theorem1(&r, &t.sizes);
        assert_eq!(report.rate_bound_violations, 1);
        assert!(!report.holds());
    }

    #[test]
    fn report_counts_are_consistent() {
        let t = trace(45);
        let r = smooth(&t, SmootherParams::at_30fps(0.15, 1, 9).unwrap());
        let report = check_theorem1(&r, &t.sizes);
        assert_eq!(report.pictures, 45);
        assert_eq!(report.delay_violations, r.delay_violations());
        assert_eq!(report.underflows, r.underflows());
        assert_eq!(report.continuous_service, r.continuous_service());
        assert!((report.max_delay - r.max_delay()).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_trivially_holds() {
        let pattern = GopPattern::new(3, 9).unwrap();
        let t = VideoTrace {
            name: "empty".into(),
            pattern,
            resolution: Resolution::VGA,
            fps: 30.0,
            sizes: vec![],
        };
        let r = smooth(&t, SmootherParams::at_30fps(0.2, 1, 9).unwrap());
        assert!(check_theorem1(&r, &t.sizes).holds());
    }
}
