//! In-memory span and count recorder for the traced run.
//!
//! A span records a name, start and end (nanoseconds since the recorder
//! was created), the span that encloses it, and the run it belongs to —
//! one run per replay of a workload or per decomposition phase. Counts
//! are recorded at the same call boundaries, attached to the innermost
//! open span. Nothing is written until [`Recorder::to_json`] is called
//! at the end of the benchmark.
//!
//! A disabled recorder (the untraced run) reads no clock and stores
//! nothing: [`Recorder::span`] just calls its closure.

use std::time::Instant;

use crate::json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One count, recorded inside span `span` (if any).
#[derive(Debug, Clone)]
pub struct Count {
    pub name: &'static str,
    pub run: u32,
    pub span: Option<usize>,
    pub value: f64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<Count>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new run id; spans and counts recorded from here on carry
    /// it. Returns the id.
    pub fn begin_run(&mut self) -> u32 {
        assert!(self.open.is_empty(), "begin_run inside an open span");
        self.run += 1;
        self.run
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        let end = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans close in LIFO order");
        self.spans[idx].end_ns = end;
        out
    }

    /// Records a count at the current call boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push(Count {
                name,
                run: self.run,
                span: self.open.last().copied(),
                value,
            });
        }
    }

    /// Self time of span `idx`: its duration minus the part of its
    /// interval its direct children cover (children of one span never
    /// overlap each other here, but the union is taken regardless).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        s.dur_ns() - covered
    }

    /// Per-run total seconds of every span named `name`, one entry per
    /// run that has such a span, in run order.
    pub fn per_run_s(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<(u32, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let secs = s.dur_ns() as f64 * 1e-9;
            match out.last_mut() {
                Some((run, acc)) if *run == s.run => *acc += secs,
                _ => out.push((s.run, secs)),
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Median over runs of the per-run total of spans named `name`
    /// (0 when no such span was recorded).
    pub fn median_s(&self, name: &str) -> f64 {
        crate::stats::median(&self.per_run_s(name))
    }

    /// Sum of every count named `name` recorded in run `run`.
    pub fn count_in_run(&self, name: &str, run: u32) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.name == name && c.run == run)
            .map(|c| c.value)
            .sum()
    }

    /// The whole recording, with per-span self time and a per-name
    /// self-time summary, as JSON.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::from(i as f64)),
                    ("name", Json::str(s.name)),
                    ("run", Json::from(s.run as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as f64)),
                    ),
                    ("start_ns", Json::from(s.start_ns as f64)),
                    ("end_ns", Json::from(s.end_ns as f64)),
                    ("self_ns", Json::from(self.self_ns(i) as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name)),
                    ("run", Json::from(c.run as f64)),
                    ("span", c.span.map_or(Json::Null, |p| Json::from(p as f64))),
                    ("value", Json::from(c.value)),
                ])
            })
            .collect();
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let summary = names
            .into_iter()
            .map(|n| {
                let (mut total, mut own, mut calls) = (0u64, 0u64, 0usize);
                for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == n) {
                    total += s.dur_ns();
                    own += self.self_ns(i);
                    calls += 1;
                }
                Json::obj([
                    ("name", Json::str(n)),
                    ("calls", Json::from(calls as f64)),
                    ("total_s", Json::from(total as f64 * 1e-9)),
                    ("self_s", Json::from(own as f64 * 1e-9)),
                ])
            })
            .collect();
        Json::obj([
            ("spans", Json::Arr(spans)),
            ("counts", Json::Arr(counts)),
            ("self_time", Json::Arr(summary)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual(spans: Vec<(Option<usize>, u64, u64)>) -> Recorder {
        let mut r = Recorder::new(true);
        r.spans = spans
            .into_iter()
            .map(|(parent, start_ns, end_ns)| Span {
                name: "x",
                run: 1,
                parent,
                start_ns,
                end_ns,
            })
            .collect();
        r
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Root [0,100) with children [10,30) and [20,50) (overlap counted
        // once) and a grandchild that must not be subtracted from root.
        let r = manual(vec![
            (None, 0, 100),
            (Some(0), 10, 30),
            (Some(0), 20, 50),
            (Some(1), 12, 14),
        ]);
        assert_eq!(r.self_ns(0), 60);
        assert_eq!(r.self_ns(1), 18);
        assert_eq!(r.self_ns(3), 2);
    }

    #[test]
    fn nesting_and_runs_are_recorded() {
        let mut r = Recorder::new(true);
        r.begin_run();
        r.span("outer", |r| {
            r.span("inner", |r| r.count("n", 3.0));
            r.count("n", 1.0);
        });
        r.begin_run();
        r.span("inner", |_| ());
        let s = &r.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].run, s[2].run), (1, 2));
        assert_eq!(r.per_run_s("inner").len(), 2);
        assert_eq!(r.count_in_run("n", 1), 4.0);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("a", |r| {
            r.count("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(r.spans.is_empty());
        assert_eq!(r.median_s("a"), 0.0);
    }
}
