//! Harness spans: name, start, end, parent, op id — kept in a `Vec`
//! and written out when the run ends.
//!
//! Spans come from two places. The harness records one around every
//! call into a layer (`setup`, `resolve`, each probe). Stage and task
//! spans under a `resolve` are rebuilt from the events the program's
//! own `TraceRecorder` already emits (see `api::reconstruct`), so no
//! emit site is added to the program.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::api::Json;

/// One closed interval on the run's timeline (seconds since the
/// recorder's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Display lane (the trace viewer's thread id); 0 is the harness thread.
    pub lane: usize,
}

impl Span {
    /// A span measured elsewhere; [`Spans::push`] stamps its operation.
    pub fn new(name: String, start_s: f64, end_s: f64, parent: Option<usize>, lane: usize) -> Self {
        Self {
            name,
            start_s,
            end_s,
            parent,
            op: 0,
            lane,
        }
    }

    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The in-memory span store of one run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open harness spans, innermost last.
    stack: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Seconds since the recorder's epoch.
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn at_s(&self, instant: Instant) -> f64 {
        instant.duration_since(self.epoch).as_secs_f64()
    }

    /// Starts a new operation: spans recorded from here share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `body` inside a span named `name`, child of the innermost
    /// open span.
    pub fn scope<T>(&mut self, name: &str, body: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_s = self.now_s();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.stack.last().copied(),
            op: self.op,
            lane: 0,
        });
        self.stack.push(index);
        let out = body(self);
        self.stack.pop();
        self.spans[index].end_s = self.now_s();
        out
    }

    /// Records a span measured elsewhere (another thread, or rebuilt
    /// from program events), stamps it with the current operation and
    /// returns its index.
    pub fn push(&mut self, mut span: Span) -> usize {
        span.op = self.op;
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of its interval
    /// its children cover (children may overlap one another — tasks
    /// run in parallel — so the cover is the union of their intervals).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_s.max(parent.start_s);
                let end = span.end_s.min(parent.end_s);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for &(start, end) in kids.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.dur_s() - covered).max(0.0)
            })
            .collect()
    }

    /// The layer table: per span name, how many, total time, self time.
    pub fn layer_table(&self) -> Vec<(String, usize, f64, f64)> {
        let selfs = self.self_times();
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let row = rows.entry(&span.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += span.dur_s();
            row.2 += own;
        }
        rows.into_iter()
            .map(|(name, (n, total, own))| (name.to_string(), n, total, own))
            .collect()
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events,
    /// microsecond timestamps), loadable in Perfetto.
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                Json::obj([
                    ("name", Json::str(span.name.as_str())),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_s * 1e6)),
                    ("dur", Json::Num(span.dur_s() * 1e6)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(span.lane as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(index as f64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("op", Json::Num(span.op as f64)),
                            ("workload", Json::str(workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span::new(name.into(), start_s, end_s, parent, 0)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        let root = spans.push(span("resolve", 0.0, 10.0, None));
        let stage = spans.push(span("stage", 1.0, 9.0, Some(root)));
        // Two overlapping tasks cover [2, 7] of the stage together.
        spans.push(span("task", 2.0, 6.0, Some(stage)));
        spans.push(span("task", 4.0, 7.0, Some(stage)));
        let selfs = spans.self_times();
        assert_eq!(selfs[root], 2.0);
        assert_eq!(selfs[stage], 3.0);
        assert_eq!(selfs[2], 4.0);
        let table = spans.layer_table();
        let task = table.iter().find(|r| r.0 == "task").unwrap();
        assert_eq!((task.1, task.2, task.3), (2, 7.0, 7.0));
    }

    #[test]
    fn scopes_nest_and_export() {
        let mut spans = Spans::new();
        spans.next_op();
        spans.scope("setup", |s| s.scope("datagen.generate", |_| ()));
        let all = spans.all();
        assert_eq!(all[1].parent, Some(0));
        assert!(all[0].start_s <= all[1].start_s && all[1].end_s <= all[0].end_s);
        let json = spans.to_chrome_trace("w").to_string();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            2
        );
    }
}
