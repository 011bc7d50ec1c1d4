//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer:
//! name, start, end, parent span and request id (the service ticket, or
//! the agreement index). Spans stay in memory while the workload runs and
//! are written out once it ends. A layer's self time is its span's
//! duration minus the part its child spans cover.
//!
//! A disabled recorder does nothing, so the untraced run pays only a
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Handle of an open or closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    request: Option<u64>,
}

/// Records spans relative to one origin instant.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span starting now.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        self.open_at(name, Instant::now(), parent, request)
    }

    /// Opens a span that started at `start` (an open-loop request starts
    /// at its due time, before anything runs for it).
    pub fn open_at(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = start.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span now.
    pub fn close(&mut self, id: Option<SpanId>) {
        self.close_at(id, Instant::now());
    }

    /// Closes a span at `end`.
    pub fn close_at(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end = end.saturating_duration_since(self.origin);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end.saturating_sub(s.start)))
            .collect()
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals clipped to it.
    fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = Duration::ZERO;
                let mut reach = span.start;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.end.saturating_sub(span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: count, total and self time (ms), in name order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += ms(span.end.saturating_sub(span.start));
            entry.2 += ms(own);
        }
        by_name
            .into_iter()
            .map(|(name, (count, total, own))| (name, count, total, own))
            .collect()
    }

    /// The spans as JSON lines, self time included.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |SpanId(p)| p.to_string());
            let request = span
                .request
                .map_or_else(|| "null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{parent},\"request\":{request}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                own.as_nanos(),
            );
        }
        out
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut tracer = Tracer::new(true);
        let t0 = tracer.origin;
        let at = |millis: u64| t0 + Duration::from_millis(millis);
        let root = tracer.open_at("root", at(0), None, Some(7));
        let a = tracer.open_at("child", at(2), root, Some(7));
        tracer.close_at(a, at(5));
        // Overlaps the first child by 1 ms: covered time is a union.
        let b = tracer.open_at("child", at(4), root, Some(7));
        tracer.close_at(b, at(6));
        tracer.close_at(root, at(10));
        let summary = tracer.summary();
        let child = summary.iter().find(|s| s.0 == "child").unwrap();
        let root = summary.iter().find(|s| s.0 == "root").unwrap();
        assert_eq!(child.1, 2);
        assert!((root.2 - 10.0).abs() < 1e-9);
        assert!((root.3 - 6.0).abs() < 1e-9, "root self = {}", root.3);
        assert!(tracer.to_jsonl().contains("\"request\":7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("x", None, None);
        tracer.close(id);
        assert_eq!(tracer.time("y", None, None, || 3), 3);
        assert!(id.is_none());
        assert!(tracer.summary().is_empty());
    }
}
