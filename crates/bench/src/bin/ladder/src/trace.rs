//! Spans recorded from the ladder's own files, around every call it makes
//! into a layer. They stay in memory and are written out when the run ends.
//!
//! A statement's first span is the end-to-end call. When that statement is
//! one of the replayed ones, the spans that follow repeat its work one rung
//! at a time against the same table state; they run one after another, and
//! `parent` gives the rung each would nest inside in the real call. A
//! rung's self time is its duration minus its child rungs' durations.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 = a statement's end-to-end call.
    pub parent: u32,
    pub stmt_id: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log. `origin` is shared by the threads of a run so
/// their spans lie on one time axis.
pub struct Tracer {
    origin: Instant,
    first_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `thread` keeps span ids of different threads apart.
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            origin,
            first_id: thread * 10_000_000,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns its id with `f`'s result.
    pub fn span<R>(
        &mut self,
        parent: u32,
        stmt_id: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> (R, Vec<(&'static str, u64)>),
    ) -> (u32, R) {
        let start_ns = self.now();
        let (result, counts) = f();
        let end_ns = self.now();
        (
            self.push(parent, stmt_id, layer, name, start_ns, end_ns, counts),
            result,
        )
    }

    /// Records a span whose duration was measured by the caller (the
    /// end-to-end call, timed once for both the recorder and the trace).
    pub fn record(
        &mut self,
        stmt_id: u32,
        layer: &'static str,
        name: &'static str,
        started: Instant,
        ended: Instant,
        counts: Vec<(&'static str, u64)>,
    ) -> u32 {
        let start_ns = started.duration_since(self.origin).as_nanos() as u64;
        let end_ns = ended.duration_since(self.origin).as_nanos() as u64;
        self.push(0, stmt_id, layer, name, start_ns, end_ns, counts)
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        parent: u32,
        stmt_id: u32,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        counts: Vec<(&'static str, u64)>,
    ) -> u32 {
        let id = self.first_id + self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            stmt_id,
            layer,
            name,
            start_ns,
            end_ns,
            counts,
        });
        id
    }
}

/// Self time per layer over the replayed statements, and how often a rung
/// came out faster than the rungs below it.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Layer → nanoseconds of self time, negatives clamped to zero.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Σ of the replayed statements' top rungs.
    pub top_ns: u64,
    pub rungs: u64,
    /// Rungs whose self time was below −5 % of their own duration.
    pub negative_rungs: u64,
}

impl SelfTimes {
    /// A layer's share of the replayed statements' time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.top_ns == 0 {
            return 0.0;
        }
        self.by_layer.get(layer).copied().unwrap_or(0) as f64 / self.top_ns as f64
    }

    pub fn negative_share(&self) -> f64 {
        if self.rungs == 0 {
            return 0.0;
        }
        self.negative_rungs as f64 / self.rungs as f64
    }
}

pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.ns();
    }
    let mut out = SelfTimes::default();
    for s in spans {
        let below = children.get(&s.id).copied();
        // A statement that was not replayed has a lone top span: it says
        // nothing about where the time went.
        if s.parent == 0 && below.is_none() {
            continue;
        }
        if s.parent == 0 {
            out.top_ns += s.ns();
        }
        let own = s.ns() as i64 - below.unwrap_or(0) as i64;
        out.rungs += 1;
        if (own as f64) < -0.05 * s.ns() as f64 {
            out.negative_rungs += 1;
        }
        *out.by_layer.entry(s.layer).or_default() += own.max(0) as u64;
    }
    out
}

/// The trace file: one JSON object per span.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {}, \"stmt_id\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}{}\n",
            s.id,
            s.parent,
            s.stmt_id,
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            counts.join(", "),
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            stmt_id: 1,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_rungs() {
        // execute 100 ⊃ {parse 5, scan 70 ⊃ {decode 50 ⊃ read 10}}
        let spans = vec![
            span(1, 0, "hiveql", 0, 100),
            span(2, 1, "hiveql", 100, 105),
            span(3, 1, "dualtable", 105, 175),
            span(4, 3, "orcfile", 175, 225),
            span(5, 4, "dfs", 225, 235),
            span(6, 0, "hiveql", 300, 400), // not replayed: ignored
        ];
        let t = self_times(&spans);
        assert_eq!(t.top_ns, 100);
        assert_eq!(t.by_layer["hiveql"], 25 + 5);
        assert_eq!(t.by_layer["dualtable"], 20);
        assert_eq!(t.by_layer["orcfile"], 40);
        assert_eq!(t.by_layer["dfs"], 10);
        let total: u64 = t.by_layer.values().sum();
        assert_eq!(total, t.top_ns, "self times sum to the top rung");
        assert_eq!(t.negative_rungs, 0);
    }

    #[test]
    fn a_rung_slower_than_its_parent_is_counted_as_negative() {
        let spans = vec![
            span(1, 0, "hiveql", 0, 100),
            span(2, 1, "dualtable", 100, 220),
        ];
        let t = self_times(&spans);
        assert_eq!(t.negative_rungs, 1);
        assert_eq!(t.rungs, 2);
        assert_eq!(t.by_layer["hiveql"], 0);
    }
}
