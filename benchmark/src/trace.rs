//! In-memory spans recorded around calls into each layer's public
//! functions. Nothing here reaches inside the program: a span's bounds are
//! `Instant`s taken by the harness (or reported by the engine, such as a
//! ticket's completion time), and spans are written out after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval of one request.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request (or set-up, probe, write) this span belongs to.
    pub req: u64,
    /// Layer-qualified name, such as `joingraph.compile`.
    pub name: &'static str,
    /// Index of the span that caused this one, within the same log.
    pub parent: Option<usize>,
    /// Offset of the start from the log's epoch.
    pub start: Duration,
    /// Offset of the end from the log's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one thread; logs are merged with [`SpanLog::absorb`].
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end]` and return its index, for children to name
    /// as their parent.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            req,
            name,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        self.spans.len() - 1
    }

    /// Set the end of span `idx` (for a root recorded before its children).
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end = end.saturating_duration_since(self.epoch);
    }

    /// Append another log's spans (re-based parents; same epoch assumed).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover (overlapping children are counted once).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut cover: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                cover.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: `(count, total, self)` — the layer table.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration();
            e.2 += own;
        }
        out
    }

    /// The spans as JSON lines (offsets and durations in microseconds).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.req,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new(t0);
        let root = log.record(1, "request", None, at(0), at(10));
        log.record(1, "a", Some(root), at(1), at(4));
        log.record(1, "b", Some(root), at(3), at(6));
        log.record(1, "c", Some(root), at(8), at(12));
        let own = log.self_times();
        // Children cover [1,6] and [8,10] of the root: 7 of its 10 ms.
        assert_eq!(own[root], Duration::from_millis(3));
        let summary = log.summary();
        assert_eq!(summary["request"].0, 1);
        assert_eq!(summary["a"].2, Duration::from_millis(3));
    }
}
