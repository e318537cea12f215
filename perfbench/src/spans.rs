//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function in
//! a span: name, start, end, parent span and request id.  Spans stay in
//! memory until the run ends and are then written out as JSON lines.  A
//! span's self time is its duration minus the part of it that its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
}

/// Records nested spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `call` inside a span named `name`; spans opened by `call` on the
    /// same recorder become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        call: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let result = call(self);
        self.open.pop();
        self.spans[index].end = self.now();
        result
    }

    /// [`span`](Self::span), also returning the span's duration in
    /// nanoseconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        call: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let index = self.spans.len();
        let result = self.span(name, request, call);
        let span = &self.spans[index];
        (result, span.end - span.start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start, span.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span in nanoseconds: its duration minus the union of
/// its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Mean self time per span name, in nanoseconds, with the span count.
pub fn mean_self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut totals: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    totals
        .into_iter()
        .map(|(name, (total, count))| (name, (total as f64 / count as f64, count)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 7,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("parse", Some(0), 10, 20),
            span("prepare", Some(0), 20, 60),
            span("rank", Some(2), 25, 45),
            // Overlaps its sibling: the overlap is not subtracted twice.
            span("render", Some(0), 50, 70),
            // Sticks out past its parent: only the covered part counts.
            span("late", Some(0), 90, 130),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 10 - 50 - 10, 10, 20, 20, 20, 40]
        );
    }

    #[test]
    fn recorder_nests_and_means_group_by_name() {
        let mut recorder = Recorder::new();
        let value = recorder.span("request", 1, |rec| {
            rec.span("parse", 1, |_| ());
            rec.span("parse", 1, |_| 5)
        });
        assert_eq!(value, 5);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].start <= spans[1].start && spans[2].end <= spans[0].end);
        let means = mean_self_by_name(spans);
        assert_eq!(means["parse"].1, 2);
        assert_eq!(means["request"].1, 1);
        let mut out = Vec::new();
        recorder.write_to(&mut out).expect("write spans");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).expect("line").contains("\"parent\":0"));
    }
}
