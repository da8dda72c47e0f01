//! Byte-for-byte goldens for the CLI's user-visible smoothing outputs.
//!
//! `tests/golden/` holds the output of
//!
//! ```sh
//! mpeg-smooth generate --sequence driving1 --pictures 2000 --seed 7 --out golden_out/trace.csv
//! mpeg-smooth smooth --trace golden_out/trace.csv --d 0.2 --k 1 \
//!     --schedule golden_out/schedule.csv > golden_out/smooth.txt
//! mpeg-smooth verify --trace golden_out/trace.csv --d 0.2 --k 1 > golden_out/verify.txt
//! ```
//!
//! recorded when the schedule record still stored `delay`, `lower0` and
//! `upper0`. The CSV's `delay_s`, `lower0_bps` and `upper0_bps` columns
//! are now recomputed from the trace, and must not move by one digit. CI
//! runs the same commands on the release binary and `diff`s the files.

use mpeg_smooth::cli::run;

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = run(&args, &mut out).expect("CLI runs");
    let out = String::from_utf8(out).expect("UTF-8 output");
    assert_eq!(code, 0, "{args:?} exited {code}: {out}");
    out
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn smooth_and_verify_match_goldens() {
    let dir = std::env::temp_dir().join(format!("mpeg_smooth_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    let trace = format!("{dir_s}/trace.csv");
    let schedule = format!("{dir_s}/schedule.csv");

    cli(&[
        "generate",
        "--sequence",
        "driving1",
        "--pictures",
        "2000",
        "--seed",
        "7",
        "--out",
        &trace,
    ]);
    let smoothed = cli(&[
        "smooth",
        "--trace",
        &trace,
        "--d",
        "0.2",
        "--k",
        "1",
        "--schedule",
        &schedule,
    ]);
    let verified = cli(&["verify", "--trace", &trace, "--d", "0.2", "--k", "1"]);
    let csv = std::fs::read_to_string(&schedule).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // The golden stdout names the schedule path CI writes to.
    assert_eq!(smoothed.replace(dir_s, "golden_out"), golden("smooth.txt"));
    assert_eq!(verified, golden("verify.txt"));
    assert!(
        csv == golden("schedule.csv"),
        "schedule CSV differs from the golden"
    );
}
