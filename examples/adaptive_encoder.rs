//! Adaptive encoder: smooth a video whose GOP pattern changes mid-stream
//! (paper §4.4: "An MPEG encoder may change the values of M and N
//! adaptively as the scene … changes").
//!
//! The driving video is re-encoded with a short-GOP `(2, 6)` pattern in
//! the fast scenes and the efficient `(3, 9)` pattern in the close-up.
//! The schedule-aware smoother estimates sizes from the most recent
//! picture of the same type; we compare it against naively assuming the
//! pattern never changed.
//!
//! ```sh
//! cargo run --example adaptive_encoder
//! ```

use mpeg_smooth::prelude::*;
use smooth_core::{check_theorem1, smooth_adaptive};
use smooth_trace::adaptive_driving;

fn main() {
    let video = adaptive_driving();
    println!("video    : {} ({} pictures)", video.name, video.len());
    println!("schedule : {}", video.schedule);
    println!("switches : {:?}", video.schedule.switch_points());

    let params = SmootherParams::at_30fps(0.2, 1, 9).expect("feasible");
    let aware = smooth_adaptive(&video, params, RateSelection::Basic);
    let report = check_theorem1(&aware, &video.sizes);
    assert!(report.holds(), "Theorem 1 is pattern-agnostic");

    // The naive alternative: pretend the pattern is a constant (2, 6).
    let naive_trace = VideoTrace::new(
        "naive",
        GopPattern::new(2, 6).expect("static"),
        video.resolution,
        video.fps,
        video.sizes.clone(),
    )
    .expect("valid");
    let naive = smooth(&naive_trace, params);

    let stats = |r: &SmoothingResult| {
        let rates: Vec<f64> = r.rates().collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let sd = (rates.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / rates.len() as f64)
            .sqrt();
        let peak = rates.iter().cloned().fold(0.0f64, f64::max);
        (peak, sd, r.rate_changes(), r.max_delay())
    };

    println!();
    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>10}",
        "estimation", "peak Mbps", "SD kbps", "changes", "max delay"
    );
    for (name, r) in [("schedule-aware", &aware), ("fixed-pattern naive", &naive)] {
        let (peak, sd, changes, max_delay) = stats(r);
        println!(
            "{:<20} {:>10.3} {:>10.1} {:>8} {:>8.1}ms",
            name,
            peak / 1e6,
            sd / 1e3,
            changes,
            max_delay * 1e3
        );
    }
    println!();
    println!("Both satisfy the delay bound (Theorem 1 never depended on the");
    println!("pattern), but pattern-aware estimation is smoother: wrong type");
    println!("guesses after a switch inflate the lookahead bounds.");
}
