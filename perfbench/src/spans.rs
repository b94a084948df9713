//! Spans recorded by the traced run around its calls into each layer.
//!
//! Spans stay in memory while the run measures and are written out as JSON
//! lines when it ends, so writing costs nothing inside a measured interval.

use platoon_sim::harness::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Spans of one tick (or one service job) share `id`.
#[derive(Debug)]
struct Span {
    name: &'static str,
    id: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

impl Span {
    fn ns(&self) -> u64 {
        nanos(self.start, self.end)
    }
}

/// Nanoseconds from `start` to `end`, zero when `end` is earlier.
fn nanos(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

/// The run's span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose written offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index (to name it as a parent).
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Summed self time per span name: each span's duration minus the part
    /// of its interval that its children cover (overlapping children, such
    /// as jobs on parallel workers, count once).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(span.start, span.end, kids);
            *out.entry(span.name).or_insert(0) += span.ns() - covered;
        }
        out
    }

    /// The log as JSON lines, times in nanoseconds since the epoch.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut w = json::Writer::compact();
            w.obj(|w| {
                w.field_u64("span", i as u64);
                w.field_str("name", s.name);
                w.field_u64("id", s.id);
                match s.parent {
                    Some(p) => w.field_u64("parent", p as u64),
                    None => w.field_raw("parent", "null"),
                }
                w.field_u64("start_ns", nanos(self.epoch, s.start));
                w.field_u64("end_ns", nanos(self.epoch, s.end));
            });
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: Instant, end: Instant, intervals: &mut [(Instant, Instant)]) -> u64 {
    intervals.sort();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += nanos(s, e);
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Instant::now();
        let mut spans = Spans::new(t);
        let batch = spans.push("batch", 0, None, at(t, 0), at(t, 100));
        // Two overlapping jobs (parallel workers) cover 10..70 once, and a
        // third runs past the batch's end, which clips it at 100.
        spans.push("job", 1, Some(batch), at(t, 10), at(t, 50));
        spans.push("job", 2, Some(batch), at(t, 30), at(t, 70));
        spans.push("job", 3, Some(batch), at(t, 90), at(t, 120));
        let selfs = spans.self_ns();
        assert_eq!(selfs["batch"], 30_000_000);
        assert_eq!(selfs["job"], 110_000_000);
        assert_eq!(spans.total_ns("job"), 110_000_000);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let t = Instant::now();
        let mut spans = Spans::new(t);
        let p = spans.push("tick", 7, None, at(t, 1), at(t, 3));
        spans.push("sim.seal", 7, Some(p), at(t, 1), at(t, 2));
        let text = spans.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let second = json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(
            second.get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(
            second.get("end_ns").and_then(json::Value::as_f64),
            Some(2e6)
        );
    }
}
