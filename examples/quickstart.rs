//! Quickstart: smooth one of the paper's video sequences and inspect the
//! guarantees.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mpeg_smooth::prelude::*;

fn main() {
    // One of the four MPEG sequences from the paper's evaluation (§5.1):
    // a fast driving scene, a cut to a close-up, and a cut back.
    let video = driving1();
    println!(
        "sequence : {} ({} pictures, pattern {}, {})",
        video.name,
        video.len(),
        video.pattern,
        video.resolution
    );

    let stats = analyze(&video);
    println!(
        "pictures : I mean {:>7.0} bits   P mean {:>7.0} bits   B mean {:>7.0} bits",
        stats.i.mean, stats.p.mean, stats.b.mean
    );
    println!(
        "rates    : mean {:.2} Mbps, unsmoothed peak {:.2} Mbps ({:.1}x mean)",
        stats.mean_rate_bps / 1e6,
        stats.peak_rate_bps / 1e6,
        stats.peak_to_mean
    );

    // The paper's recommended parameters (§6): K = 1, H = N, D = 0.2 s.
    let params = SmootherParams::recommended(video.pattern.n());
    let result = smooth(&video, params);

    // Theorem 1, audited independently of the algorithm:
    let report = check_theorem1(&result, &video.sizes);
    assert!(report.holds(), "Theorem 1 must hold for K >= 1");
    println!(
        "smoothing: D = {:.3} s, K = {}, H = {} -> max delay {:.4} s, {} delay violations",
        params.delay_bound, params.k, params.h, report.max_delay, report.delay_violations
    );

    let m = measure(&video, &result);
    println!(
        "smoothed : max rate {:.2} Mbps, SD {:.0} kbps, {} rate changes, area diff {:.4}",
        m.max_rate_bps / 1e6,
        m.std_dev_bps / 1e3,
        m.rate_changes,
        m.area_difference
    );
    println!(
        "=> peak network allocation cut from {:.2} Mbps to {:.2} Mbps, losslessly,",
        stats.peak_rate_bps / 1e6,
        m.max_rate_bps / 1e6
    );
    println!(
        "   with every picture delivered within {:.0} ms.",
        params.delay_bound * 1e3
    );
}
