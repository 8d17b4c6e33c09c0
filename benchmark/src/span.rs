//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The recorder is off while end-to-end metrics are measured; the traced
//! run turns it on. A span's parent is the span that was open when it
//! started (a pass, a cell, a call), and a name's *self time* is its
//! duration minus what its direct children cover, so self times add up to
//! the root without double counting.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`sim.run`, `grid.store.put`, …).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when on; a plain call-through when off.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `on = false` records nothing and reads no clock.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`. `f` gets the recorder back so
    /// calls nest.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Per name, in first-seen order: how many spans, and their summed self
/// time.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, f64)> {
    let mut out: Vec<(&'static str, u64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, ..)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += own;
            }
            None => out.push((s.name, 1, own)),
        }
    }
    out
}

/// Summed self time of the spans called `name`.
pub fn self_time_of(spans: &[Span], name: &str) -> f64 {
    self_time_by_name(spans)
        .iter()
        .find(|(n, ..)| *n == name)
        .map_or(0.0, |r| r.2)
}

/// How many spans are called `name`.
pub fn count_of(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// The share of the first span called `root` that spans below it account
/// for: one minus the root's own self time over its duration.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let Some(ix) = spans.iter().position(|s| s.name == root) else {
        return 0.0;
    };
    let dur = spans[ix].duration();
    if dur <= 0.0 {
        return 0.0;
    }
    1.0 - self_times(spans)[ix] / dur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,10] ── cell [1,9] ── build [1,2], run [2,8]
        //             └─ cell [9,10] (no children)
        let spans = vec![
            span("pass", None, 0.0, 10.0),
            span("cell", Some(0), 1.0, 9.0),
            span("build", Some(1), 1.0, 2.0),
            span("run", Some(1), 2.0, 8.0),
            span("cell", Some(0), 9.0, 10.0),
        ];
        assert_eq!(self_times(&spans), vec![1.0, 1.0, 1.0, 6.0, 1.0]);
        assert_eq!(
            self_time_by_name(&spans),
            vec![
                ("pass", 1, 1.0),
                ("cell", 2, 2.0),
                ("build", 1, 1.0),
                ("run", 1, 6.0)
            ]
        );
        // Self times add up to the root's duration.
        let total: f64 = self_times(&spans).iter().sum();
        assert_eq!(total, 10.0);
        assert_eq!(self_time_of(&spans, "run"), 6.0);
        assert_eq!(count_of(&spans, "cell"), 2);
        assert_eq!(coverage(&spans, "pass"), 0.9);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut rec = Recorder::new(true);
        let v = rec.time("outer", |r| r.time("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Recorder::new(false);
        assert_eq!(off.time("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
