//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! experiments [names...] [--csv-dir DIR] [--series] [--threads N]
//!             [--bench-json PATH]
//! ```
//!
//! With no names, runs everything. Series tables (thousands of rows,
//! meant for plotting) are written to CSV but elided on the terminal
//! unless `--series` is given.
//!
//! Sweep-heavy figures fan out over `--threads` workers (default: all
//! cores; output is bit-identical for any value). Every run times each
//! figure and writes a `BENCH_sweep.json` perf report recording the
//! thread count with its provenance, the git commit, and a serial re-run
//! of *every* figure when the main run was parallel (so per-figure
//! speedups are tracked suite-wide).

use std::time::Instant;

use smooth_bench::experiments;
use smooth_sweep::bench::SweepBenchReport;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    let mut csv_dir = String::from("results");
    let mut bench_json = String::from("BENCH_sweep.json");
    let mut print_series = false;
    let mut threads_opt: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv-dir" => {
                csv_dir = it.next().unwrap_or_else(|| {
                    eprintln!("--csv-dir requires a value");
                    std::process::exit(2);
                })
            }
            "--bench-json" => {
                bench_json = it.next().unwrap_or_else(|| {
                    eprintln!("--bench-json requires a value");
                    std::process::exit(2);
                })
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--threads requires a value");
                    std::process::exit(2);
                });
                threads_opt = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads: cannot parse {v:?}");
                    std::process::exit(2);
                }));
            }
            "--series" => print_series = true,
            "--help" | "-h" => {
                println!(
                    "usage: experiments [names...] [--csv-dir DIR] [--series] \
                     [--threads N] [--bench-json PATH]"
                );
                println!(
                    "names: {}",
                    experiments::all()
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                return;
            }
            other => names.push(other.to_string()),
        }
    }

    let (threads, thread_source) = smooth_sweep::resolve_threads_with_source(threads_opt);
    smooth_sweep::set_default_threads(threads);

    let all = experiments::all();
    let selected: Vec<&experiments::Experiment> = if names.is_empty() {
        all.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                all.iter().find(|(name, _)| name == n).unwrap_or_else(|| {
                    eprintln!(
                        "unknown experiment {n:?}; known: {}",
                        all.iter().map(|(x, _)| *x).collect::<Vec<_>>().join(" ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let mut report = SweepBenchReport::with_thread_source(threads, thread_source);
    for &&(name, gen) in &selected {
        println!("==================== {name} ====================");
        let tables = report.time(name, gen);
        for table in tables {
            match table.save_csv(&csv_dir) {
                Ok(path) => {
                    let is_series = table.title.contains("series");
                    if is_series && !print_series {
                        println!(
                            "## {} -> {} ({} rows, printed to CSV only)",
                            table.title,
                            path.display(),
                            table.rows.len()
                        );
                    } else {
                        print!("{}", table.render());
                        println!("   -> {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("failed to write CSV for {}: {e}", table.title);
                    print!("{}", table.render());
                }
            }
            println!();
        }
    }

    // Serial re-runs of every selected figure so BENCH_sweep.json records
    // per-figure parallel speedups suite-wide. When the main run was
    // already serial, each figure is its own baseline — copy the wall time
    // instead of paying for a second identical run.
    if threads > 1 {
        smooth_sweep::set_default_threads(1);
        for &&(name, gen) in &selected {
            let t0 = Instant::now();
            std::hint::black_box(gen());
            report.set_serial_baseline(name, t0.elapsed().as_secs_f64());
        }
    } else {
        let copies: Vec<(String, f64)> = report
            .figures
            .iter()
            .map(|f| (f.name.clone(), f.wall_seconds))
            .collect();
        for (name, wall) in copies {
            report.set_serial_baseline(&name, wall);
        }
    }

    match report.save(std::path::Path::new(&bench_json)) {
        Ok(()) => println!(
            "perf report ({} figures, {} threads) -> {bench_json}",
            report.figures.len(),
            report.threads
        ),
        Err(e) => eprintln!("failed to write {bench_json}: {e}"),
    }
}
