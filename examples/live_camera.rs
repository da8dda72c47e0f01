//! Live capture: drive the streaming interface the way a transport
//! protocol attached to a camera + encoder would (paper Figure 1).
//!
//! Pictures are pushed one at a time as they finish encoding; the
//! smoother emits `notify`-style rate decisions as soon as each becomes
//! decidable (after K further pictures for the earliest ones).
//!
//! ```sh
//! cargo run --example live_camera
//! ```

use mpeg_smooth::prelude::*;

fn main() {
    // "Live" source: the Tennis sequence, whose motion ramps up as the
    // instructor stands — the smoothed rate will track that ramp.
    let video = tennis();
    let params = SmootherParams::at_30fps(0.2, 1, video.pattern.n()).expect("feasible");

    // Live mode: the smoother does not know when the sequence will end.
    let mut smoother = OnlineSmoother::new(params, video.pattern);

    let mut decisions = Vec::new();
    let mut last_rate = f64::NAN;
    println!(
        "{:>7}  {:>4}  {:>11}  {:>9}",
        "picture", "type", "rate (Mbps)", "delay(ms)"
    );
    for &bits in &video.sizes {
        // The encoder finished a picture: hand it to the transport.
        for d in smoother.push(bits) {
            if d.rate != last_rate {
                println!(
                    "{:>7}  {:>4}  {:>11.3}  {:>9.1}",
                    d.index,
                    video.type_of(d.index).to_string(),
                    d.rate / 1e6,
                    d.delay(params.tau) * 1e3
                );
                last_rate = d.rate;
            }
            decisions.push(d);
        }
    }
    // Camera stopped: flush the tail.
    decisions.extend(smoother.finish());

    assert_eq!(decisions.len(), video.len());
    let max_delay = decisions
        .iter()
        .map(|d| d.delay(params.tau))
        .fold(0.0f64, f64::max);
    let changes = decisions
        .windows(2)
        .filter(|w| w[1].rate != w[0].rate)
        .count();
    println!("---");
    println!(
        "{} pictures, {} rate changes, max delay {:.1} ms (bound {:.0} ms)",
        decisions.len(),
        changes,
        max_delay * 1e3,
        params.delay_bound * 1e3
    );
    assert!(
        max_delay <= params.delay_bound + 1e-9,
        "Theorem 1 holds in live mode too"
    );
}
