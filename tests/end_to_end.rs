//! End-to-end pipeline: scene script → synthetic encoder → real MPEG-1
//! bitstream → resynchronizing parser → trace → smoothing algorithm →
//! Theorem 1 audit → metrics → ATM packetizer → cell multiplexer.
//!
//! Every crate of the workspace participates; the sizes that reach the
//! smoother are the ones *measured from the coded bitstream*, not the
//! generator's bookkeeping.

use mpeg_smooth::prelude::*;
use smooth_mpeg::bitstream::{parse_strict, write_stream, SequenceHeader, StreamSpec};
use smooth_netsim::{cell_times, CellMux, CELL_PAYLOAD_BITS};

#[test]
fn full_pipeline_driving1() {
    // 1. Synthetic encode (the trace is the encoder's declared output).
    let declared = driving1().truncated(90);

    // 2. Write a structurally real MPEG-1 stream with those picture sizes.
    let spec = StreamSpec::new(SequenceHeader::vbr(declared.resolution), declared.pattern);
    let written = write_stream(&spec, &declared.sizes, 99);

    // 3. Parse it back and measure the actual coded sizes.
    let parsed = parse_strict(&written.bytes).expect("clean stream");
    assert_eq!(parsed.pictures.len(), declared.len());
    let measured_sizes = parsed.display_order_sizes();
    for (have, want) in measured_sizes.iter().zip(&declared.sizes) {
        assert_eq!(
            *have,
            (want / 8) * 8,
            "parser must recover the written size"
        );
    }

    // 4. Build the trace the transport layer would see.
    let video = VideoTrace::new(
        "Driving1-from-bitstream",
        declared.pattern,
        declared.resolution,
        declared.fps,
        measured_sizes,
    )
    .expect("valid measured trace");

    // 5. Smooth with the paper's recommended parameters.
    let params = SmootherParams::recommended(video.pattern.n());
    let result = smooth(&video, params);

    // 6. Audit Theorem 1 on the real (bitstream-measured) sizes.
    let report = check_theorem1(&result, &video.sizes);
    assert!(report.holds(), "{report:?}");

    // 7. Metrics: the smoothed peak must sit far below the unsmoothed one.
    let m = measure(&video, &result);
    assert!(m.max_rate_bps < 0.55 * video.peak_picture_rate_bps());

    // 8. Packetize the smoothed schedule into ATM cells.
    let cells = cell_times(&result.rate_segments());
    let expected_cells = (video.total_bits() as f64 / CELL_PAYLOAD_BITS).ceil() as usize;
    assert_eq!(cells.len(), expected_cells, "every bit rides in a cell");

    // 9. Feed a cell-granular switch provisioned at the smoothed peak:
    // zero drops with a small buffer.
    let mux = CellMux {
        capacity_bps: 1.25 * m.max_rate_bps,
        buffer_cells: 64,
    };
    let stats = mux.run(&cells);
    assert_eq!(
        stats.dropped_cells, 0,
        "provisioning at the smoothed peak suffices"
    );

    // 10. The same switch fed by the UNSMOOTHED sender drops cells: this
    // is the whole point of the paper.
    let raw_cells = cell_times(&unsmoothed(&video).segments);
    let raw_stats = mux.run(&raw_cells);
    assert!(
        raw_stats.dropped_cells > 0,
        "unsmoothed bursts must overflow a switch provisioned for smoothed traffic"
    );
}

#[test]
fn full_pipeline_all_sequences_smoke() {
    for declared in paper_sequences() {
        let declared = declared.truncated(3 * declared.pattern.n());
        let spec = StreamSpec::new(SequenceHeader::vbr(declared.resolution), declared.pattern);
        let written = write_stream(&spec, &declared.sizes, 5);
        let parsed = parse_strict(&written.bytes).expect("clean stream");
        let video = VideoTrace::new(
            declared.name.clone(),
            declared.pattern,
            declared.resolution,
            declared.fps,
            parsed.display_order_sizes(),
        )
        .expect("valid");
        let params = SmootherParams::recommended(video.pattern.n());
        let result = smooth(&video, params);
        assert!(
            check_theorem1(&result, &video.sizes).holds(),
            "{}",
            video.name
        );
    }
}

#[test]
fn streaming_transport_over_bitstream_arrivals() {
    // The online smoother fed by sizes measured picture-by-picture from
    // the coded stream, in display order, as a receiver-side transport
    // would do for a stored file.
    let declared = tennis().truncated(54);
    let spec = StreamSpec::new(SequenceHeader::vbr(declared.resolution), declared.pattern);
    let written = write_stream(&spec, &declared.sizes, 3);
    let parsed = parse_strict(&written.bytes).expect("clean");
    let sizes = parsed.display_order_sizes();

    let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
    let mut online = OnlineSmoother::for_stored(params, declared.pattern, sizes.len());
    let mut schedule = Vec::new();
    for &s in &sizes {
        schedule.extend(online.push(s));
    }
    schedule.extend(online.finish());
    assert_eq!(schedule.len(), sizes.len());
    let max_delay = schedule
        .iter()
        .map(|p| p.delay(params.tau))
        .fold(0.0f64, f64::max);
    assert!(max_delay <= params.delay_bound + 1e-9);
}
