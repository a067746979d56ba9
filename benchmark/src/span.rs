//! In-memory spans for the traced run.
//!
//! The benchmark records a span around every public call it makes into a
//! layer. Spans of one request share its number; `parent` names the span
//! that caused this one. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Trace::end`] closes it.
    pub fn begin(&mut self, request: u32, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.record(request, name, parent, start_ns, start_ns)
    }

    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.nanos()
    }

    /// Adds a span whose interval was measured elsewhere (a duration a
    /// layer reports about itself, placed inside its parent).
    pub fn record(
        &mut self,
        request: u32,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Times one call as a child span.
    pub fn time<T>(
        &mut self,
        request: u32,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(request, name, parent);
        let out = f();
        self.end(id);
        out
    }
}

/// One JSON object per line: `{request, id, name, parent, start_ns, end_ns}`;
/// `id` is the span's position, which `parent` refers to.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"request\":{},\"id\":{id},\"name\":\"{}\",\"parent\":",
            s.request, s.name
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = writeln!(
            out,
            ",\"start_ns\":{},\"end_ns\":{}}}",
            s.start_ns, s.end_ns
        );
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.nanos() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 0,
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // root 0..100; children 10..30 and 50..90; grandchild 55..65.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
            span(Some(2), 55, 65),
        ];
        assert_eq!(self_times(&spans), [40, 20, 30, 10]);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children 10..40 and 30..60 overlap by 10; a third overhangs
        // the parent's end and is clipped to it.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
            span(Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        // A child entirely outside its parent covers nothing.
        let spans = [span(None, 0, 10), span(Some(0), 20, 30)];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Trace::new();
        let root = t.begin(7, "request", None);
        t.time(7, "runtime.run", Some(root), || ());
        t.end(root);
        let text = to_jsonl(&t.spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"request\":7,\"id\":0,\"name\":\"request\",\"parent\":null,")
        );
        assert!(lines[1].contains("\"name\":\"runtime.run\",\"parent\":0,"));
        let v = crate::json::parse(lines[1]).unwrap();
        assert!(v.get("end_ns").unwrap().as_f64() >= v.get("start_ns").unwrap().as_f64());
    }
}
