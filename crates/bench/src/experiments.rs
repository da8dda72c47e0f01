//! One function per paper figure/table: each regenerates the series the
//! paper plots and returns it as [`Table`]s (printed by the `experiments`
//! binary, persisted as CSV under `results/`, and timed into
//! `BENCH_sweep.json`).
//!
//! The per-experiment index in DESIGN.md §4 maps each function here to
//! the paper figure it reproduces; EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use crate::table::{f, Table};
use smooth_core::{
    check_theorem1, ideal_smooth, ott_smooth, smooth, smooth_with, PatternEstimator, RateSelection,
    SmootherParams, SmoothingResult,
};
use smooth_metrics::{delay_stats, measure, SmoothnessMeasures};
use smooth_mpeg::synth::{size_factor, size_ratio, PAPER_I_BITS_Q30, PAPER_I_BITS_Q4};
use smooth_netsim::{buffer_sweep, MultiplexConfig, SourceMode};
use smooth_trace::{analyze, driving1, paper_sequences, SequenceId, VideoTrace};

const TAU: f64 = 1.0 / 30.0;

fn measures(trace: &VideoTrace, result: &SmoothingResult) -> SmoothnessMeasures {
    measure(trace, result)
}

/// **Figure 3** — the picture-size traces of the four sequences (the
/// paper prints Driving1 and Tennis; we emit all four), plus the §5.1
/// per-type statistics.
pub fn fig3() -> Vec<Table> {
    let mut tables = Vec::new();

    let mut summary = Table::new(
        "Fig 3 summary: per-type picture sizes (bits)",
        &[
            "sequence",
            "pattern",
            "res",
            "I mean",
            "I max",
            "P mean",
            "B mean",
            "I/B ratio",
            "mean Mbps",
        ],
    );
    for trace in paper_sequences() {
        let st = analyze(&trace);
        summary.push(vec![
            trace.name.clone(),
            trace.pattern.to_string(),
            trace.resolution.to_string(),
            f(st.i.mean, 0),
            st.i.max.to_string(),
            f(st.p.mean, 0),
            f(st.b.mean, 0),
            f(st.i.mean / st.b.mean, 1),
            f(st.mean_rate_bps / 1e6, 2),
        ]);

        let mut series = Table::new(
            format!("Fig 3 series: {} picture sizes", trace.name),
            &["picture", "type", "bits"],
        );
        for (i, &bits) in trace.sizes.iter().enumerate() {
            series.push(vec![
                i.to_string(),
                trace.type_of(i).to_string(),
                bits.to_string(),
            ]);
        }
        tables.push(series);
    }
    tables.insert(0, summary);
    tables
}

/// **Figure 4** — `r(t)` vs ideal `R(t)` for Driving1, K = 1, H = 9, at
/// four delay bounds. Emits both the per-D summary the text discusses and
/// the full step series for plotting.
pub fn fig4() -> Vec<Table> {
    let trace = driving1();
    let ds = [0.10, 0.1333, 0.20, 0.30];
    let mut tables = Vec::new();

    let mut summary = Table::new(
        "Fig 4 summary: Driving1 r(t) vs D (K=1, H=9)",
        &[
            "D (s)",
            "max r Mbps",
            "SD kbps",
            "rate changes",
            "area diff",
            "max delay ms",
        ],
    );
    let results = smooth_sweep::par_map(smooth_sweep::default_threads(), &ds, |_, &d| {
        smooth(&trace, SmootherParams::at_30fps(d, 1, 9).expect("feasible"))
    });
    for (&d, result) in ds.iter().zip(&results) {
        let m = measures(&trace, result);
        summary.push(vec![
            f(d, 4),
            f(m.max_rate_bps / 1e6, 3),
            f(m.std_dev_bps / 1e3, 1),
            m.rate_changes.to_string(),
            f(m.area_difference, 4),
            f(result.max_delay() * 1e3, 1),
        ]);

        let mut series = Table::new(
            format!("Fig 4 series: Driving1 rate function D={d}"),
            &["t (s)", "rate (Mbps)"],
        );
        for seg in result.rate_segments() {
            series.push(vec![f(seg.start, 5), f(seg.rate / 1e6, 4)]);
        }
        tables.push(series);
    }

    // The ideal R(t) reference curve.
    let ideal = ideal_smooth(&trace);
    let mut ideal_series = Table::new(
        "Fig 4 series: Driving1 ideal R(t)",
        &["t (s)", "rate (Mbps)"],
    );
    for seg in &ideal.segments {
        ideal_series.push(vec![f(seg.start, 5), f(seg.rate / 1e6, 4)]);
    }
    tables.push(ideal_series);
    tables.insert(0, summary);
    tables
}

/// **Figure 5** — per-picture delays: (left) D = 0.1 and D = 0.3 vs ideal
/// smoothing; (right) K = 1 vs K = 9 at constant slack vs ideal.
pub fn fig5() -> Vec<Table> {
    let trace = driving1();
    let d01 = smooth(
        &trace,
        SmootherParams::at_30fps(0.1, 1, 9).expect("feasible"),
    );
    let d03 = smooth(
        &trace,
        SmootherParams::at_30fps(0.3, 1, 9).expect("feasible"),
    );
    let k1 = smooth(&trace, SmootherParams::constant_slack(1, 9, TAU));
    let k9 = smooth(&trace, SmootherParams::constant_slack(9, 9, TAU));
    let ideal = ideal_smooth(&trace);

    let mut series = Table::new(
        "Fig 5 series: Driving1 per-picture delays (s)",
        &[
            "picture",
            "D=0.1 K=1",
            "D=0.3 K=1",
            "slack K=1",
            "slack K=9",
            "ideal",
        ],
    );
    for i in 0..trace.len() {
        series.push(vec![
            i.to_string(),
            f(d01.schedule[i].delay(d01.params.tau), 5),
            f(d03.schedule[i].delay(d03.params.tau), 5),
            f(k1.schedule[i].delay(k1.params.tau), 5),
            f(k9.schedule[i].delay(k9.params.tau), 5),
            f(ideal.schedule[i].delay, 5),
        ]);
    }

    let mut summary = Table::new(
        "Fig 5 summary: delay statistics (s)",
        &["case", "min", "mean", "max", "bound", "violations"],
    );
    let mut push = |name: &str, st: smooth_metrics::DelayStats, bound: Option<f64>| {
        summary.push(vec![
            name.to_string(),
            f(st.min, 4),
            f(st.mean, 4),
            f(st.max, 4),
            bound.map(|b| f(b, 4)).unwrap_or_else(|| "-".into()),
            st.over_bound.to_string(),
        ]);
    };
    push(
        "basic D=0.1 K=1 H=9",
        delay_stats(d01.delays(), Some(0.1)),
        Some(0.1),
    );
    push(
        "basic D=0.3 K=1 H=9",
        delay_stats(d03.delays(), Some(0.3)),
        Some(0.3),
    );
    push(
        "basic slack K=1 H=9",
        delay_stats(k1.delays(), Some(k1.params.delay_bound)),
        Some(k1.params.delay_bound),
    );
    push(
        "basic slack K=9 H=9",
        delay_stats(k9.delays(), Some(k9.params.delay_bound)),
        Some(k9.params.delay_bound),
    );
    push("ideal smoothing", delay_stats(ideal.delays(), None), None);

    vec![summary, series]
}

/// Shared sweep driver for Figures 6–8: each grid point is smoothed and
/// measured in parallel ([`smooth_sweep::par_map`] with the process
/// default worker count), with rows collected back in grid order — the
/// table is byte-identical to the old serial loop for any thread count.
fn sweep_table(
    title: &str,
    param_name: &str,
    configs: impl Iterator<Item = (String, VideoTrace, SmootherParams)>,
) -> Table {
    let configs: Vec<(String, VideoTrace, SmootherParams)> = configs.collect();
    let threads = smooth_sweep::default_threads();
    let rows = smooth_sweep::par_map(threads, &configs, |_, (value, trace, params)| {
        let result = smooth(trace, *params);
        debug_assert_eq!(result.delay_violations(), 0);
        let m = measures(trace, &result);
        vec![
            trace.name.clone(),
            value.clone(),
            f(m.area_difference, 4),
            m.rate_changes.to_string(),
            f(m.max_rate_bps / 1e6, 3),
            f(m.std_dev_bps / 1e3, 1),
        ]
    });
    let mut table = Table::new(
        title,
        &[
            "sequence",
            param_name,
            "area diff",
            "rate changes",
            "max r Mbps",
            "SD kbps",
        ],
    );
    for row in rows {
        table.push(row);
    }
    table
}

/// **Figure 6** — the four measures as a function of the delay bound `D`
/// (K = 1, H = N) for all four sequences.
pub fn fig6() -> Vec<Table> {
    let ds = [0.0667, 0.0833, 0.10, 0.1333, 0.1667, 0.20, 0.25, 0.30];
    let configs = paper_sequences().into_iter().flat_map(move |trace| {
        ds.into_iter().map(move |d| {
            let n = trace.pattern.n();
            (
                f(d, 4),
                trace.clone(),
                SmootherParams::at_30fps(d, 1, n).expect("feasible"),
            )
        })
    });
    vec![sweep_table(
        "Fig 6: measures vs delay bound D (K=1, H=N)",
        "D (s)",
        configs,
    )]
}

/// **Figure 7** — the four measures as a function of the lookahead `H`
/// (D = 0.2, K = 1) for all four sequences.
pub fn fig7() -> Vec<Table> {
    let configs = paper_sequences().into_iter().flat_map(|trace| {
        let n = trace.pattern.n();
        let hs = [1, 2, n / 2, n - 1, n, n + 3, 2 * n - 3, 2 * n];
        hs.into_iter().map(move |h| {
            let h = h.max(1);
            (
                h.to_string(),
                trace.clone(),
                SmootherParams::at_30fps(0.2, 1, h).expect("feasible"),
            )
        })
    });
    vec![sweep_table(
        "Fig 7: measures vs lookahead H (D=0.2, K=1)",
        "H",
        configs,
    )]
}

/// **Figure 8** — the four measures as a function of `K` at constant
/// slack `D = 0.1333 + (K+1)/30`, H = N, for all four sequences.
pub fn fig8() -> Vec<Table> {
    let mut tables = vec![sweep_table(
        "Fig 8: measures vs K (D = 0.1333 + (K+1)/30, H=N)",
        "K",
        paper_sequences().into_iter().flat_map(|trace| {
            let n = trace.pattern.n();
            (1..=12usize).map(move |k| {
                (
                    k.to_string(),
                    trace.clone(),
                    SmootherParams::constant_slack(k, n, TAU),
                )
            })
        }),
    )];

    // Companion: the delay cost of K (why the paper recommends K = 1).
    let mut delays = Table::new(
        "Fig 8 companion: mean delay vs K (Driving1)",
        &["K", "D (s)", "mean delay (s)", "max delay (s)"],
    );
    let trace = driving1();
    let ks: Vec<usize> = (1..=12).collect();
    let companion = smooth_sweep::par_map(smooth_sweep::default_threads(), &ks, |_, &k| {
        let params = SmootherParams::constant_slack(k, 9, TAU);
        let result = smooth(&trace, params);
        (params, delay_stats(result.delays(), None))
    });
    for (&k, (params, st)) in ks.iter().zip(&companion) {
        delays.push(vec![
            k.to_string(),
            f(params.delay_bound, 4),
            f(st.mean, 4),
            f(st.max, 4),
        ]);
    }
    tables.push(delays);
    tables
}

/// **T-thm** — the §5.2 claim: zero delay-bound violations anywhere in
/// the paper's parameter grid for K ≥ 1, and constructible violations at
/// K = 0 with tiny slack.
pub fn theorem() -> Vec<Table> {
    let mut grid = Table::new(
        "Theorem 1 grid: violations across the full parameter sweep",
        &[
            "sequence",
            "configs",
            "pictures checked",
            "delay violations",
            "service gaps",
        ],
    );
    for trace in paper_sequences() {
        let n = trace.pattern.n();
        let mut param_grid: Vec<SmootherParams> = Vec::new();
        for d in [0.0667, 0.10, 0.1333, 0.20, 0.30] {
            for k in 1..=3usize {
                if d + 1e-12 < (k as f64 + 1.0) * TAU {
                    continue;
                }
                for h in [1usize, n, 2 * n] {
                    param_grid.push(SmootherParams::at_30fps(d, k, h).expect("ok"));
                }
            }
        }
        let reports = smooth_sweep::par_map(
            smooth_sweep::default_threads(),
            &param_grid,
            |_, &params| check_theorem1(&smooth(&trace, params), &trace.sizes),
        );
        let configs = reports.len();
        let mut pictures = 0usize;
        let mut violations = 0usize;
        let mut gaps = 0usize;
        for report in &reports {
            pictures += report.pictures;
            violations += report.delay_violations;
            if !report.continuous_service {
                gaps += 1;
            }
        }
        grid.push(vec![
            trace.name.clone(),
            configs.to_string(),
            pictures.to_string(),
            violations.to_string(),
            gaps.to_string(),
        ]);
    }

    let mut k0 = Table::new(
        "Theorem 1 boundary: K = 0 with shrinking slack (Driving1)",
        &["slack (ms)", "violations", "max delay (ms)", "bound (ms)"],
    );
    let trace = driving1();
    for slack_ms in [1.0f64, 5.0, 20.0, 50.0, 150.0] {
        let d = TAU + slack_ms / 1e3;
        let params = SmootherParams::new_unchecked(d, 0, 9, TAU);
        let result = smooth(&trace, params);
        k0.push(vec![
            f(slack_ms, 0),
            result.delay_violations().to_string(),
            f(result.max_delay() * 1e3, 1),
            f(d * 1e3, 1),
        ]);
    }
    vec![grid, k0]
}

/// **X-mux** — statistical multiplexing: loss ratio of a finite-buffer
/// switch fed by 8 sources, raw vs smoothed, across buffer sizes and
/// capacities.
pub fn mux() -> Vec<Table> {
    let params = SmootherParams::at_30fps(0.2, 1, 9).expect("feasible");
    let base = MultiplexConfig {
        sequence: SequenceId::Driving1,
        pictures: 150,
        sources: 8,
        mode: SourceMode::Unsmoothed,
        capacity_bps: 19.0e6,
        buffer_bits: 0.0,
        seed: 2024,
    };

    let cell = 424.0;
    let mut by_buffer = Table::new(
        "X-mux: loss vs buffer (8 x Driving1, 19 Mbps link)",
        &["buffer (cells)", "raw loss", "smoothed loss", "gain"],
    );
    let buffers: Vec<f64> = [64.0, 128.0, 256.0, 512.0, 1024.0]
        .iter()
        .map(|c| c * cell)
        .collect();
    for (buf, raw, smoothed) in buffer_sweep(&base, params, &buffers) {
        let gain = if smoothed > 0.0 {
            format!("{:.1}x", raw / smoothed)
        } else {
            "inf".into()
        };
        by_buffer.push(vec![f(buf / cell, 0), f(raw, 6), f(smoothed, 6), gain]);
    }

    let mut by_capacity = Table::new(
        "X-mux: loss vs capacity (8 x Driving1, 256-cell buffer)",
        &[
            "capacity (Mbps)",
            "nominal load",
            "raw loss",
            "smoothed loss",
        ],
    );
    let caps = [17.0e6, 18.0e6, 19.0e6, 20.0e6, 21.0e6, 22.0e6];
    let outcomes = smooth_sweep::par_map(smooth_sweep::default_threads(), &caps, |_, &cap| {
        let raw = smooth_netsim::run_multiplex_threaded(
            &MultiplexConfig {
                capacity_bps: cap,
                buffer_bits: 256.0 * cell,
                ..base
            },
            1,
        );
        let smoothed = smooth_netsim::run_multiplex_threaded(
            &MultiplexConfig {
                capacity_bps: cap,
                buffer_bits: 256.0 * cell,
                mode: SourceMode::Smoothed { params },
                ..base
            },
            1,
        );
        (raw, smoothed)
    });
    for (&cap, (raw, smoothed)) in caps.iter().zip(&outcomes) {
        by_capacity.push(vec![
            f(cap / 1e6, 0),
            f(raw.nominal_load, 2),
            f(raw.loss_ratio(), 6),
            f(smoothed.loss_ratio(), 6),
        ]);
    }
    vec![by_buffer, by_capacity]
}

/// **X-mod** — the §4.4 moving-average modification, and the a-priori
/// taut-string reference, against the basic algorithm.
pub fn ablation() -> Vec<Table> {
    let est = PatternEstimator::default();
    let mut table = Table::new(
        "X-mod: basic vs moving-average vs a-priori (D=0.2, K=1, H=N)",
        &[
            "sequence",
            "policy",
            "area diff",
            "rate changes",
            "max r Mbps",
            "SD kbps",
        ],
    );
    for trace in paper_sequences() {
        let n = trace.pattern.n();
        let params = SmootherParams::at_30fps(0.2, 1, n).expect("feasible");
        for (policy, selection) in [
            ("basic", RateSelection::Basic),
            ("moving-average", RateSelection::MovingAverage),
        ] {
            let result = smooth_with(&trace, params, &est, selection);
            let m = measures(&trace, &result);
            table.push(vec![
                trace.name.clone(),
                policy.to_string(),
                f(m.area_difference, 4),
                m.rate_changes.to_string(),
                f(m.max_rate_bps / 1e6, 3),
                f(m.std_dev_bps / 1e3, 1),
            ]);
        }
        // Channel rate grid (p x 64 kbit/s): the practical-deployment
        // variant; smoothness cost of discretizing the rate.
        let gridded = smooth(&trace, params.with_rate_grid(64_000.0));
        let mg = measures(&trace, &gridded);
        table.push(vec![
            trace.name.clone(),
            "basic + 64k grid".to_string(),
            f(mg.area_difference, 4),
            mg.rate_changes.to_string(),
            f(mg.max_rate_bps / 1e6, 3),
            f(mg.std_dev_bps / 1e3, 1),
        ]);
        // The all-sizes-known optimum at the same bound (Ott et al.).
        let opt = ott_smooth(&trace, 0.2).expect("feasible");
        let r = smooth_metrics::StepFunction::from_segments(&opt.segments);
        let t_end = trace.duration();
        table.push(vec![
            trace.name.clone(),
            "a-priori optimal".to_string(),
            "-".into(),
            (opt.segments.len() - 1).to_string(),
            f(opt.max_rate() / 1e6, 3),
            f(r.std_over(r.domain_start(), t_end) / 1e3, 1),
        ]);
    }
    vec![table]
}

/// **X-quant** — the §3.1 lossy-alternative reference point: quantizer
/// scale vs coded size, anchored at the paper's measured 282,976 →
/// 75,960 bits for 4 → 30.
pub fn quantizer() -> Vec<Table> {
    let mut table = Table::new(
        "X-quant: I-picture size vs quantizer scale (model anchored to paper)",
        &["q", "relative size", "predicted bits", "note"],
    );
    for q in [1u8, 2, 4, 6, 8, 15, 22, 30, 31] {
        let rel = size_factor(q);
        let bits = PAPER_I_BITS_Q4 as f64 * size_ratio(4, q);
        let note = match q {
            4 => format!("paper: {} bits measured", PAPER_I_BITS_Q4),
            30 => format!("paper: {} bits measured", PAPER_I_BITS_Q30),
            _ => String::new(),
        };
        table.push(vec![q.to_string(), f(rel, 4), f(bits, 0), note]);
    }
    vec![table]
}

/// **X-rx** — receiver-side dual of the delay bound: minimal playback
/// offset and client buffer requirement as functions of `D`.
pub fn receiver() -> Vec<Table> {
    let mut table = Table::new(
        "X-rx: client buffer and playback offset vs D (K=1, H=N)",
        &[
            "sequence",
            "D (s)",
            "min offset (s)",
            "client buffer (kbit)",
            "underflows at P=D",
        ],
    );
    for trace in paper_sequences() {
        let n = trace.pattern.n();
        for d in [0.1, 0.2, 0.3, 0.5] {
            let result = smooth(&trace, SmootherParams::at_30fps(d, 1, n).expect("feasible"));
            let report = smooth_core::simulate_receiver(&result, d);
            table.push(vec![
                trace.name.clone(),
                f(d, 2),
                f(smooth_core::min_playback_offset(&result), 4),
                f(report.max_buffer_bits / 1e3, 0),
                report.underflows.to_string(),
            ]);
        }
    }
    vec![table]
}

/// **X-upc** — the ATM traffic-contract dual: minimal token-bucket burst
/// tolerance σ each sender needs at ρ = 1.1 × mean rate.
pub fn upc() -> Vec<Table> {
    use smooth_metrics::{baseline_rate_function, rate_function, StepFunction};
    use smooth_netsim::min_bucket_for;

    // Dual views of the same contract: (a) σ needed at a fixed ρ; (b) the
    // ρ a connection must buy when the network only grants a small σ
    // (50 kbit ≈ 118 ATM cells) — the picture-timescale number smoothing
    // actually improves.
    let mut sigma_table = Table::new(
        "X-upc: min burst tolerance at rho = 1.1 x mean (kbit)",
        &[
            "sequence",
            "unsmoothed",
            "smoothed D=0.1",
            "smoothed D=0.2",
            "ideal",
        ],
    );
    let mut rho_table = Table::new(
        "X-upc: min sustained rate for sigma <= 50 kbit (Mbps)",
        &[
            "sequence",
            "unsmoothed",
            "smoothed D=0.2",
            "ideal",
            "raw/smoothed",
        ],
    );
    for trace in paper_sequences() {
        let n = trace.pattern.n();
        let t_end = trace.duration() + 1.0;
        let raw_f = baseline_rate_function(&smooth_core::unsmoothed(&trace));
        let s01_f = rate_function(&smooth(
            &trace,
            SmootherParams::at_30fps(0.1, 1, n).expect("feasible"),
        ));
        let s02_f = rate_function(&smooth(
            &trace,
            SmootherParams::at_30fps(0.2, 1, n).expect("feasible"),
        ));
        let ideal_f = baseline_rate_function(&ideal_smooth(&trace));

        let rho = 1.1 * trace.mean_rate_bps();
        let sigma = |fun: &StepFunction| min_bucket_for(fun, rho, 0.0, t_end);
        sigma_table.push(vec![
            trace.name.clone(),
            f(sigma(&raw_f) / 1e3, 0),
            f(sigma(&s01_f) / 1e3, 0),
            f(sigma(&s02_f) / 1e3, 0),
            f(sigma(&ideal_f) / 1e3, 0),
        ]);

        // Bisect for the smallest rho whose sigma_min fits 50 kbit.
        let min_rho = |fun: &StepFunction| -> f64 {
            let (mut lo, mut hi) = (trace.mean_rate_bps() * 0.5, trace.peak_picture_rate_bps());
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if min_bucket_for(fun, mid, 0.0, t_end) <= 50_000.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        let raw_rho = min_rho(&raw_f);
        let s02_rho = min_rho(&s02_f);
        rho_table.push(vec![
            trace.name.clone(),
            f(raw_rho / 1e6, 2),
            f(s02_rho / 1e6, 2),
            f(min_rho(&ideal_f) / 1e6, 2),
            format!("{:.1}x", raw_rho / s02_rho),
        ]);
    }
    vec![sigma_table, rho_table]
}

/// **X-lossy** — the §3.1 lossy alternatives, quantified against lossless
/// smoothing at the same peak rate.
pub fn lossy() -> Vec<Table> {
    use smooth_core::{cap_peak_with_quantizer, drop_b_pictures};
    use smooth_mpeg::{PictureType, QuantizerSet};

    let mut quant = Table::new(
        "X-lossy: quantizer control at the lossless smoother's peak",
        &[
            "sequence",
            "peak cap Mbps",
            "degraded pics",
            "mean I quant",
            "worst I quant",
            "truncated",
        ],
    );
    for trace in paper_sequences() {
        let n = trace.pattern.n();
        let result = smooth(
            &trace,
            SmootherParams::at_30fps(0.2, 1, n).expect("feasible"),
        );
        let m = measures(&trace, &result);
        let cap = m.max_rate_bps;
        let r = cap_peak_with_quantizer(&trace, QuantizerSet::PAPER, cap);
        quant.push(vec![
            trace.name.clone(),
            f(cap / 1e6, 2),
            format!("{}/{}", r.degraded, trace.len()),
            f(r.mean_quantizer(&trace, PictureType::I), 1),
            r.worst_i_quantizer(&trace).to_string(),
            r.truncated.to_string(),
        ]);
    }

    let mut bdrop = Table::new(
        "X-lossy: dropping all B pictures (paper: does not fix fluctuations)",
        &[
            "sequence",
            "mean before Mbps",
            "mean after Mbps",
            "peak after Mbps",
            "display fps",
        ],
    );
    for trace in paper_sequences() {
        let r = drop_b_pictures(&trace, usize::MAX);
        bdrop.push(vec![
            trace.name.clone(),
            f(r.mean_before_bps / 1e6, 2),
            f(r.mean_after_bps / 1e6, 2),
            f(r.peak_after_bps / 1e6, 2),
            f(r.effective_fps, 1),
        ]);
    }
    vec![quant, bdrop]
}

/// **X-adapt** — smoothing under an adaptive (pattern-switching) encoder:
/// schedule-aware estimation vs naively assuming a fixed pattern.
pub fn adaptive() -> Vec<Table> {
    use smooth_core::{check_theorem1 as audit, smooth_adaptive};
    use smooth_mpeg::GopPattern;
    use smooth_trace::adaptive_driving;

    let video = adaptive_driving();
    let params = SmootherParams::at_30fps(0.2, 1, 9).expect("feasible");

    let aware = smooth_adaptive(&video, params, RateSelection::Basic);
    let naive_trace = smooth_trace::VideoTrace::new(
        "naive",
        GopPattern::new(2, 6).expect("static"),
        video.resolution,
        video.fps,
        video.sizes.clone(),
    )
    .expect("valid");
    let naive = smooth(&naive_trace, params);

    let mut table = Table::new(
        "X-adapt: adaptive encoder (2,6)->(3,9)->(2,6), D=0.2 K=1",
        &[
            "estimation",
            "delay violations",
            "rate changes",
            "max r Mbps",
            "SD kbps",
        ],
    );
    let sd = |r: &SmoothingResult| {
        let rates: Vec<f64> = r.rates().collect();
        let m = rates.iter().sum::<f64>() / rates.len() as f64;
        (rates.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / rates.len() as f64).sqrt()
    };
    for (name, r) in [("schedule-aware", &aware), ("fixed-(2,6) naive", &naive)] {
        let report = audit(r, &video.sizes);
        let peak = r.rates().fold(0.0f64, f64::max);
        table.push(vec![
            name.to_string(),
            report.delay_violations.to_string(),
            r.rate_changes().to_string(),
            f(peak / 1e6, 3),
            f(sd(r) / 1e3, 1),
        ]);
    }
    vec![table]
}

/// **X-damage** — network loss translated into decoder damage: packetize
/// a real coded stream, drop packets, reassemble, and let the
/// resynchronizing parser count what a decoder loses (paper §2's error
/// behaviour, end to end).
pub fn damage() -> Vec<Table> {
    use smooth_mpeg::bitstream::{parse_stream, write_stream, SequenceHeader, StreamSpec};
    use smooth_netsim::lossy_session;
    use smooth_rng::Rng;

    let video = driving1().truncated(54);
    let spec = StreamSpec::new(SequenceHeader::vbr(video.resolution), video.pattern);
    let written = write_stream(&spec, &video.sizes, 17);
    let clean = parse_stream(&written.bytes);
    let total_slices: usize = clean.pictures.iter().map(|p| p.slices.len()).sum();

    let mut table = Table::new(
        "X-damage: packet loss -> decoder damage (Driving1, 54 pictures, 188-byte packets)",
        &[
            "packet loss",
            "pictures recovered",
            "slices recovered",
            "pictures content-damaged",
            "parse issues",
        ],
    );
    for loss in [0.0, 0.001, 0.005, 0.02, 0.05, 0.20] {
        let mut rng = Rng::seed_from_u64(1994);
        let session = lossy_session(&written.bytes, 188, loss, &mut rng);
        let parsed = parse_stream(&session.received);
        let slices: usize = parsed.pictures.iter().map(|p| p.slices.len()).sum();
        // Content damage: a picture whose bytes intersect any lost packet
        // shows corrupt macroblocks even where the structure parses.
        let damaged = smooth_netsim::units_damaged(&written.picture_ranges, &session.lost_ranges);
        table.push(vec![
            f(loss, 3),
            format!("{}/{}", parsed.pictures.len(), video.len()),
            format!("{slices}/{total_slices}"),
            format!("{damaged}/{}", video.len()),
            parsed.issues.len().to_string(),
        ]);
    }
    vec![table]
}

/// **X-model** — the §4.1 modeling remark, validated: re-simulate each
/// schedule against randomized true arrival instants and measure how far
/// real delays can deviate from the model's.
pub fn model() -> Vec<Table> {
    use smooth_core::validate_against_events;

    let mut table = Table::new(
        "X-model: event-sim vs analytical model (D=0.2, K=1, H=N)",
        &[
            "sequence",
            "max excess (ms)",
            "mean slack (ms)",
            "starvations",
        ],
    );
    for trace in paper_sequences() {
        let n = trace.pattern.n();
        let result = smooth(
            &trace,
            SmootherParams::at_30fps(0.2, 1, n).expect("feasible"),
        );
        let report = validate_against_events(&result, 1994);
        table.push(vec![
            trace.name.clone(),
            f(report.max_excess * 1e3, 6),
            f(report.mean_slack * 1e3, 2),
            report.starvation_events.to_string(),
        ]);
    }
    vec![table]
}

/// A named experiment: its CLI name paired with its table generator.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// Every experiment, in order. `("name", generator)` pairs drive both the
/// CLI and the smoke tests.
pub fn all() -> Vec<Experiment> {
    vec![
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("theorem", theorem),
        ("mux", mux),
        ("ablation", ablation),
        ("quantizer", quantizer),
        ("receiver", receiver),
        ("upc", upc),
        ("lossy", lossy),
        ("adaptive", adaptive),
        ("damage", damage),
        ("model", model),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_rows() {
        for (name, gen) in all() {
            let tables = gen();
            assert!(!tables.is_empty(), "{name}: no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{name}/{}: empty table", t.title);
                for row in &t.rows {
                    assert_eq!(row.len(), t.columns.len(), "{name}/{}", t.title);
                }
            }
        }
    }

    #[test]
    fn fig4_summary_shows_monotone_max_rate() {
        let tables = fig4();
        let summary = &tables[0];
        let max_rates: Vec<f64> = summary
            .rows
            .iter()
            .map(|r| r[1].parse::<f64>().expect("numeric"))
            .collect();
        for w in max_rates.windows(2) {
            assert!(
                w[1] <= w[0] * 1.005,
                "max rate should fall with D: {max_rates:?}"
            );
        }
    }

    #[test]
    fn theorem_grid_reports_zero_violations() {
        let tables = theorem();
        for row in &tables[0].rows {
            assert_eq!(row[3], "0", "{}: delay violations", row[0]);
            assert_eq!(row[4], "0", "{}: service gaps", row[0]);
        }
        // And the K=0 boundary: the tightest slack shows violations.
        assert!(tables[1].rows[0][1].parse::<usize>().expect("count") > 0);
    }

    #[test]
    fn quantizer_table_hits_paper_anchors() {
        let t = &quantizer()[0];
        let q30 = t.rows.iter().find(|r| r[0] == "30").expect("q=30 row");
        let bits: f64 = q30[2].parse().expect("numeric");
        assert!((bits - PAPER_I_BITS_Q30 as f64).abs() < 1.0);
    }
}
