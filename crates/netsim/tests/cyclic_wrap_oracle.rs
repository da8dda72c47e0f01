//! [`smooth_netsim::cyclic_wrap`] against its frozen quadratic oracle,
//! [`smooth_netsim::experiment::reference::cyclic_wrap`]: the same
//! breakpoints and the same value bits (`to_bits`, no tolerance) on
//! random sources with zero-rate pieces, offsets beyond one period,
//! pieces parked on the wrap boundary, and periods from 0.02× to 3× the
//! source length — short periods fold one piece over many laps, so
//! output windows sum several overlapping pieces.

use proptest::prelude::*;
use smooth_core::{RateSegment, SmootherParams};
use smooth_metrics::StepFunction;
use smooth_netsim::experiment::reference;
use smooth_netsim::{cyclic_wrap, source_rate_function, SourceMode};
use smooth_trace::{generate, SequenceId};

/// Total mass (bits) under a rate function.
fn mass(f: &StepFunction) -> f64 {
    f.pieces().map(|(s, e, v)| v * (e - s)).sum()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts `cyclic_wrap` and the oracle agree bit for bit.
fn same_bits(f: &StepFunction, offset: f64, period: f64) -> Result<(), TestCaseError> {
    let got = cyclic_wrap(f, offset, period);
    let want = reference::cyclic_wrap(f, offset, period);
    prop_assert_eq!(bits(got.breakpoints()), bits(want.breakpoints()));
    let values = |g: &StepFunction| g.pieces().map(|(_, _, v)| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(values(&got), values(&want));
    Ok(())
}

/// A random piecewise-constant source over [0, ~6 s]; about a quarter
/// of its pieces are silent.
fn arb_source() -> impl Strategy<Value = StepFunction> {
    proptest::collection::vec((0.005f64..0.5, 0u8..4, 0.0f64..10.0e6), 1..16).prop_map(|pieces| {
        let mut segs = Vec::with_capacity(pieces.len());
        let mut t = 0.0;
        for (dur, silent, rate) in pieces {
            segs.push(RateSegment {
                start: t,
                end: t + dur,
                rate: if silent == 0 { 0.0 } else { rate },
            });
            t += dur;
        }
        StepFunction::from_segments(&segs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any offset in `[0, 5·period)` and a period from 0.02× to 3× the
    /// source length.
    #[test]
    fn matches_oracle_bitwise(
        source in arb_source(),
        period_scale in 0.02f64..3.0,
        laps in 0.0f64..5.0,
    ) {
        let period = source.domain_end() * period_scale;
        same_bits(&source, laps * period, period)?;
    }

    /// Offsets that put one of the source's breakpoints exactly on a
    /// wrap boundary (`breakpoint + offset = m·period`), and offsets of
    /// whole periods.
    #[test]
    fn matches_oracle_with_pieces_parked_on_the_boundary(
        source in arb_source(),
        period_scale in 0.02f64..3.0,
        pick in 0.0f64..1.0,
        m in 0usize..4,
    ) {
        let period = source.domain_end() * period_scale;
        let breaks = source.breakpoints();
        let b = breaks[((pick * breaks.len() as f64) as usize).min(breaks.len() - 1)];
        let parked = ((b / period).ceil() + m as f64) * period - b;
        same_bits(&source, parked, period)?;
        same_bits(&source, m as f64 * period, period)?;
    }
}

/// The benchmark's shape at small size: smoothed and raw paper traces
/// looped over their own duration at phase-staggered offsets.
#[test]
fn matches_oracle_on_trace_derived_sources() {
    for (i, id) in SequenceId::ALL.iter().enumerate() {
        let trace = generate(*id, 600, 31 + i as u64);
        let period = trace.duration();
        let params = SmootherParams::new(0.5, 1, trace.pattern.n(), trace.tau()).unwrap();
        for mode in [SourceMode::Unsmoothed, SourceMode::Smoothed { params }] {
            let f = source_rate_function(&trace, mode);
            for j in 0..8 {
                let offset = period * (j as f64 * 0.137 + 0.01);
                same_bits(&f, offset, period).unwrap();
            }
        }
    }
}

/// A single piece spanning several wrap boundaries whose lap end
/// `(k + 1)·period / period` rounds below `k + 1`: the fold used to
/// re-derive `k` from there, stop advancing and push pieces until memory
/// ran out. Both implementations must now return and conserve mass.
#[test]
fn piece_spanning_many_boundaries_terminates() {
    let rate = 4.0e6;
    let source = StepFunction::from_segments(&[RateSegment {
        start: 0.0,
        end: 0.3689141543662727,
        rate,
    }]);
    let (offset, period) = (0.14021891701269695, 0.08605333977983629);
    same_bits(&source, offset, period).unwrap();
    let g = cyclic_wrap(&source, offset, period);
    let m0 = mass(&source);
    assert!(
        (mass(&g) - m0).abs() <= 1e-9 * m0,
        "mass not conserved: {m0} -> {}",
        mass(&g)
    );
    assert!(g.domain_end() <= period + 1e-12);
    // 4.29 laps: every instant of the window is covered at least 4 times.
    assert!(g.pieces().all(|(_, _, v)| v >= 4.0 * rate));
}
