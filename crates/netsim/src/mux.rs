//! Finite-buffer FIFO multiplexer models.
//!
//! The paper's motivation (§1, §3, citing Reibman & Berger and Reininger
//! et al.): the statistical multiplexing gain of a finite-buffer packet
//! switch improves substantially when the variance of its input traffic is
//! reduced — which is exactly what lossless smoothing does. These two
//! models let the experiments quantify that claim:
//!
//! * [`FluidMux`] — inputs are piecewise-constant rate functions; queue
//!   dynamics are integrated *exactly* between breakpoints (no time
//!   slotting, no discretization error);
//! * [`CellMux`] — inputs are discrete ATM cell arrival times; service is
//!   deterministic at line rate; the buffer holds a fixed number of cells.

use serde::{Deserialize, Serialize};
use smooth_metrics::StepFunction;

/// Outcome of a fluid multiplexer run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidMuxStats {
    /// Total bits offered by all sources.
    pub arrived_bits: f64,
    /// Bits dropped on buffer overflow.
    pub lost_bits: f64,
    /// Bits transmitted on the output link.
    pub served_bits: f64,
    /// Bits still queued at the end of the run.
    pub final_queue_bits: f64,
    /// Largest queue occupancy observed.
    pub max_queue_bits: f64,
    /// Mean utilization of the output link over the run.
    pub utilization: f64,
}

impl FluidMuxStats {
    /// Fraction of offered bits lost.
    pub fn loss_ratio(&self) -> f64 {
        if self.arrived_bits <= 0.0 {
            0.0
        } else {
            self.lost_bits / self.arrived_bits
        }
    }
}

/// A fluid finite-buffer FIFO multiplexer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidMux {
    /// Output link capacity, bits/second.
    pub capacity_bps: f64,
    /// Buffer size, bits.
    pub buffer_bits: f64,
}

impl FluidMux {
    /// Runs the multiplexer over `[t_start, t_end]` with the given input
    /// rate functions, integrating the queue exactly between breakpoints.
    ///
    /// Since the streaming port this delegates to the k-way-merge
    /// [`crate::sweep::RateSweep`] engine — O(T·log S) in the total
    /// breakpoint count T instead of the original O(S²·B·log B) — while
    /// producing stats bit-identical to the frozen [`reference`] (the
    /// `sweep_props` proptests pin this). A zero-length window yields
    /// all-zero stats (utilization 0, not NaN).
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive or the buffer is negative.
    pub fn run(&self, inputs: &[StepFunction], t_start: f64, t_end: f64) -> FluidMuxStats {
        crate::sweep::RateSweep {
            capacity_bps: self.capacity_bps,
            buffer_bits: self.buffer_bits,
        }
        .run(inputs, t_start, t_end)
    }
}

/// The pre-streaming-port fluid multiplexer, retained as the test oracle
/// (the same pattern as `smooth_core::reference`): materialize every
/// breakpoint of every input into one sorted cut vector, then walk the
/// intervals re-sampling **all** inputs per interval — O(S²·B·log B).
/// Nothing in this module is called by production code paths; the
/// `sweep_props` proptests and the repository benchmark's `paper_grid`
/// gate pin [`crate::sweep::RateSweep`] against it.
///
/// Two conventions are shared with the streaming engine so that "equal"
/// can mean *bit-identical* rather than within-tolerance (f64 addition is
/// not associative, so the summation order is part of the spec):
///
/// * per-interval aggregation uses the canonical
///   [`smooth_sweep::SumTree`] pairwise order (also the more accurate
///   order — O(log S) rounding growth vs O(S) for a naive fold);
/// * cuts are deduplicated **exactly** (`==`), not with the original
///   absolute `1e-12` epsilon, which was scale-unsafe: near `t = 0` it
///   collapsed distinct sub-epsilon breakpoints (vanishing bursts
///   entirely), while for windows at large `t` (≈ 1e6 s, where one ulp
///   is ≈ 1.2e-10) it could never fire at all, so its only effect was a
///   scale-dependent change in integration results. Each interval then
///   samples at its *left endpoint* — exact for right-open step
///   functions, where midpoint sampling could land on the wrong side of
///   a sub-ulp interval.
pub mod reference {
    use super::{FluidMux, FluidMuxStats};
    use crate::sweep::QueueState;
    use smooth_metrics::StepFunction;
    use smooth_sweep::SumTree;

    /// The original materialize-then-resample run loop. Quadratic in the
    /// source count; exact; the oracle for [`crate::sweep::RateSweep`].
    pub fn run(mux: &FluidMux, inputs: &[StepFunction], t_start: f64, t_end: f64) -> FluidMuxStats {
        assert!(mux.capacity_bps > 0.0, "capacity must be positive");
        assert!(mux.buffer_bits >= 0.0, "buffer must be non-negative");

        let mut state = QueueState::new();
        if t_end > t_start {
            // Merge breakpoints of all inputs within the window.
            let mut cuts: Vec<f64> = vec![t_start, t_end];
            for f in inputs {
                cuts.extend(
                    f.breakpoints()
                        .iter()
                        .copied()
                        .filter(|&t| t > t_start && t < t_end),
                );
            }
            cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            cuts.dedup();

            let mut values = vec![0.0f64; inputs.len()];
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1]);
                if b <= a {
                    continue;
                }
                // The value on [a, b) is the value at the left endpoint:
                // no input has a breakpoint strictly inside the interval.
                for (slot, f) in values.iter_mut().zip(inputs) {
                    *slot = f.value_at(a);
                }
                let agg = SumTree::sum_of(&values);
                state.advance(agg, b - a, mux.capacity_bps, mux.buffer_bits);
            }
        }
        state.into_stats(mux.capacity_bps, t_start, t_end)
    }
}

/// Outcome of a cell multiplexer run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellMuxStats {
    /// Cells offered.
    pub arrived_cells: usize,
    /// Cells dropped on buffer overflow.
    pub dropped_cells: usize,
    /// Largest number of cells in the system at once.
    pub max_occupancy: usize,
}

impl CellMuxStats {
    /// Fraction of offered cells dropped.
    pub fn loss_ratio(&self) -> f64 {
        if self.arrived_cells == 0 {
            0.0
        } else {
            self.dropped_cells as f64 / self.arrived_cells as f64
        }
    }
}

/// A cell-granular finite-buffer FIFO multiplexer with deterministic
/// service (one cell every `CELL_WIRE_BITS / capacity` seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMux {
    /// Output link capacity, bits/second (on the wire: 53-byte cells).
    pub capacity_bps: f64,
    /// Buffer size in cells, *excluding* the one in service.
    pub buffer_cells: usize,
}

impl CellMux {
    /// Runs the multiplexer over a sorted sequence of cell arrival times.
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive or arrivals are unsorted.
    pub fn run(&self, arrivals: &[f64]) -> CellMuxStats {
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        let service = crate::packetizer::CELL_WIRE_BITS / self.capacity_bps;
        // `work` = seconds of service already committed (backlog) at the
        // time of the previous arrival.
        let mut work = 0.0f64;
        let mut prev_t = f64::NEG_INFINITY;
        let mut dropped = 0usize;
        let mut max_occupancy = 0usize;
        let system_capacity = (self.buffer_cells + 1) as f64 * service;

        for &t in arrivals {
            assert!(t >= prev_t - 1e-12, "arrivals must be sorted");
            if prev_t.is_finite() {
                work = (work - (t - prev_t)).max(0.0);
            }
            prev_t = t;
            if work + service > system_capacity + 1e-12 {
                dropped += 1;
            } else {
                work += service;
                // Tolerate float fuzz from long subtraction chains: a
                // backlog within 1e-9 of a whole number of cells is that
                // whole number.
                let occupancy = (work / service - 1e-9).ceil().max(1.0) as usize;
                max_occupancy = max_occupancy.max(occupancy);
            }
        }

        CellMuxStats {
            arrived_cells: arrivals.len(),
            dropped_cells: dropped,
            max_occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_core::RateSegment;

    fn step(segs: &[(f64, f64, f64)]) -> StepFunction {
        let segs: Vec<RateSegment> = segs
            .iter()
            .map(|&(s, e, r)| RateSegment {
                start: s,
                end: e,
                rate: r,
            })
            .collect();
        StepFunction::from_segments(&segs)
    }

    #[test]
    fn fluid_no_loss_when_capacity_exceeds_peak() {
        let mux = FluidMux {
            capacity_bps: 10.0e6,
            buffer_bits: 0.0,
        };
        let inputs = vec![step(&[(0.0, 10.0, 3.0e6)]), step(&[(0.0, 10.0, 4.0e6)])];
        let stats = mux.run(&inputs, 0.0, 10.0);
        assert_eq!(stats.loss_ratio(), 0.0);
        assert!((stats.arrived_bits - 70.0e6).abs() < 1.0);
        assert!((stats.utilization - 0.7).abs() < 1e-9);
    }

    #[test]
    fn fluid_zero_buffer_drops_exact_excess() {
        let mux = FluidMux {
            capacity_bps: 5.0e6,
            buffer_bits: 0.0,
        };
        // 8 Mbps offered for 2 s: 6 Mbit must drop.
        let inputs = vec![step(&[(0.0, 2.0, 8.0e6)])];
        let stats = mux.run(&inputs, 0.0, 2.0);
        assert!((stats.lost_bits - 6.0e6).abs() < 1.0);
        assert!((stats.loss_ratio() - 6.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn fluid_buffer_absorbs_short_burst() {
        // 8 Mbps for 1 s then 2 Mbps for 3 s into a 5 Mbps link:
        // burst excess = 3 Mbit; a 3 Mbit buffer absorbs it entirely.
        let mux = FluidMux {
            capacity_bps: 5.0e6,
            buffer_bits: 3.0e6,
        };
        let inputs = vec![step(&[(0.0, 1.0, 8.0e6), (1.0, 4.0, 2.0e6)])];
        let stats = mux.run(&inputs, 0.0, 4.0);
        assert_eq!(stats.loss_ratio(), 0.0);
        assert!((stats.max_queue_bits - 3.0e6).abs() < 1.0);
        // And the queue fully drains before the end (drain rate 3 Mbps,
        // 1 s needed).
        assert!(stats.final_queue_bits.abs() < 1.0);
    }

    #[test]
    fn fluid_undersized_buffer_loses_the_difference() {
        let mux = FluidMux {
            capacity_bps: 5.0e6,
            buffer_bits: 1.0e6,
        };
        let inputs = vec![step(&[(0.0, 1.0, 8.0e6), (1.0, 4.0, 2.0e6)])];
        let stats = mux.run(&inputs, 0.0, 4.0);
        // Excess 3 Mbit, buffer 1 Mbit -> 2 Mbit lost.
        assert!(
            (stats.lost_bits - 2.0e6).abs() < 1.0,
            "lost {}",
            stats.lost_bits
        );
    }

    #[test]
    fn fluid_conservation() {
        let mux = FluidMux {
            capacity_bps: 4.0e6,
            buffer_bits: 0.5e6,
        };
        let inputs = vec![
            step(&[(0.0, 1.0, 6.0e6), (1.0, 2.0, 1.0e6), (2.0, 3.0, 7.0e6)]),
            step(&[(0.5, 2.5, 2.0e6)]),
        ];
        let stats = mux.run(&inputs, 0.0, 3.0);
        let balance =
            stats.arrived_bits - stats.lost_bits - stats.served_bits - stats.final_queue_bits;
        assert!(balance.abs() < 1.0, "conservation violated by {balance}");
    }

    #[test]
    fn fluid_loss_monotone_in_buffer_and_capacity() {
        let inputs = vec![step(&[
            (0.0, 1.0, 9.0e6),
            (1.0, 2.0, 1.0e6),
            (2.0, 3.0, 9.0e6),
        ])];
        let loss = |cap: f64, buf: f64| {
            FluidMux {
                capacity_bps: cap,
                buffer_bits: buf,
            }
            .run(&inputs, 0.0, 3.0)
            .loss_ratio()
        };
        assert!(loss(5.0e6, 0.0) >= loss(5.0e6, 1.0e6));
        assert!(loss(5.0e6, 1.0e6) >= loss(5.0e6, 4.0e6));
        assert!(loss(4.0e6, 1.0e6) >= loss(6.0e6, 1.0e6));
    }

    #[test]
    fn cell_mux_no_drops_when_spaced() {
        // Arrivals exactly at the service rate: never more than 1 in
        // system.
        let mux = CellMux {
            capacity_bps: 424_000.0,
            buffer_cells: 0,
        };
        let service = 1e-3; // 424 bits at 424 kbps
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * service).collect();
        let stats = mux.run(&arrivals);
        assert_eq!(stats.dropped_cells, 0);
        assert_eq!(stats.max_occupancy, 1);
    }

    #[test]
    fn cell_mux_batch_overflows_small_buffer() {
        // 10 simultaneous cells into a buffer of 4 (+1 in service): 5
        // accepted, 5 dropped.
        let mux = CellMux {
            capacity_bps: 424_000.0,
            buffer_cells: 4,
        };
        let arrivals = vec![0.0; 10];
        let stats = mux.run(&arrivals);
        assert_eq!(stats.arrived_cells, 10);
        assert_eq!(stats.dropped_cells, 5);
        assert_eq!(stats.max_occupancy, 5);
    }

    #[test]
    fn cell_mux_loss_monotone_in_buffer() {
        let arrivals: Vec<f64> = (0..1000).map(|i| (i / 10) as f64 * 1e-3).collect();
        let loss = |buf: usize| {
            CellMux {
                capacity_bps: 424_000.0,
                buffer_cells: buf,
            }
            .run(&arrivals)
            .loss_ratio()
        };
        assert!(loss(0) >= loss(4));
        assert!(loss(4) >= loss(16));
        assert!(loss(16) >= loss(64));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn cell_mux_rejects_unsorted() {
        CellMux {
            capacity_bps: 1e6,
            buffer_cells: 1,
        }
        .run(&[1.0, 0.5]);
    }

    #[test]
    fn empty_inputs() {
        let f = FluidMux {
            capacity_bps: 1e6,
            buffer_bits: 1e6,
        }
        .run(&[], 0.0, 1.0);
        assert_eq!(f.loss_ratio(), 0.0);
        let c = CellMux {
            capacity_bps: 1e6,
            buffer_cells: 1,
        }
        .run(&[]);
        assert_eq!(c.loss_ratio(), 0.0);
    }
}
