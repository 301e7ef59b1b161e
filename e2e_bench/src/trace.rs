//! In-memory span recorder.
//!
//! Spans are closed intervals recorded around calls into the system's
//! public functions: a name (the layer), the round they belong to, and
//! start/end times relative to the tracer's creation. Parents are
//! assigned by containment when the trace is finished — the smallest
//! earlier-starting span that encloses a span is its parent — which lets
//! wrappers deep inside an engine call record flat spans while the round
//! boundaries that enclose them are only known afterwards. A layer's
//! self time is its span time minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `wire.encode`.
    pub name: &'static str,
    /// Round the span belongs to (0 = set-up).
    pub round: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A finished span: parent index (into the same list) and self time.
#[derive(Debug, Clone, PartialEq)]
pub struct Finished {
    pub span: Span,
    pub parent: Option<usize>,
    pub self_ns: u64,
}

/// Calls and summed self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.calls as f64
        }
    }
}

/// Collects spans for one traced run.
pub struct Tracer {
    origin: Instant,
    round: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
        }
    }

    /// Sets the round stamped on spans recorded from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span in the current round.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.record_in(name, self.round, start, end);
    }

    /// Records a closed span in an explicit round.
    pub fn record_in(&mut self, name: &'static str, round: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            round,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Assigns parents by containment and computes self times.
    pub fn finish(&self) -> Vec<Finished> {
        finish(&self.spans)
    }
}

/// Parent assignment and self time for a list of spans (see the module
/// docs). Output order matches input order.
pub fn finish(spans: &[Span]) -> Vec<Finished> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Enclosing spans first: earlier start, then longer.
    order.sort_by(|&a, &b| {
        spans[a]
            .start_ns
            .cmp(&spans[b].start_ns)
            .then(spans[b].end_ns.cmp(&spans[a].end_ns))
            .then(a.cmp(&b))
    });
    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[top].end_ns >= spans[i].end_ns && spans[top].start_ns <= spans[i].start_ns {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(i);
        }
    }
    (0..spans.len())
        .map(|i| {
            let covered = covered_ns(
                spans[i].start_ns,
                spans[i].end_ns,
                children[i]
                    .iter()
                    .map(|&c| (spans[c].start_ns, spans[c].end_ns)),
            );
            Finished {
                span: spans[i].clone(),
                parent: parent[i],
                self_ns: spans[i].duration().saturating_sub(covered),
            }
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Per-layer call counts and self-time sums.
pub fn layer_totals(finished: &[Finished]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for f in finished {
        let t = totals.entry(f.span.name).or_default();
        t.calls += 1;
        t.self_ns += f.self_ns;
    }
    totals
}

/// One JSON object per span, one span per line; ids and parents are
/// indices into `finished`.
pub fn to_jsonl(finished: &[Finished]) -> String {
    let mut out = String::new();
    for (id, f) in finished.iter().enumerate() {
        let parent = f.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            f.span.name, f.span.round, f.span.start_ns, f.span.end_ns, f.self_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            round: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // round [0,100] ⊃ encode [10,30], vote [40,90] ⊃ median [50,60].
        let spans = vec![
            span("encode", 10, 30),
            span("median", 50, 60),
            span("vote", 40, 90),
            span("round", 0, 100),
        ];
        let f = finish(&spans);
        assert_eq!(f[3].parent, None);
        assert_eq!(f[0].parent, Some(3));
        assert_eq!(f[2].parent, Some(3));
        assert_eq!(f[1].parent, Some(2));
        assert_eq!(f[3].self_ns, 100 - 20 - 50);
        assert_eq!(f[2].self_ns, 50 - 10);
        assert_eq!(f[1].self_ns, 10);
        assert_eq!(f[0].self_ns, 20);
        let totals = layer_totals(&f);
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(0, 100, [(10, 50), (40, 60)].into_iter()), 50);
        assert_eq!(covered_ns(0, 100, [(90, 150)].into_iter()), 10);
        assert_eq!(covered_ns(0, 100, std::iter::empty()), 0);
    }

    #[test]
    fn siblings_do_not_nest_and_equal_spans_nest_once() {
        let spans = vec![span("a", 0, 10), span("b", 10, 20), span("c", 10, 20)];
        let f = finish(&spans);
        assert_eq!(f[0].parent, None);
        assert_eq!(f[1].parent, None, "touching spans are siblings");
        assert_eq!(
            f[2].parent,
            Some(1),
            "an identical span nests in the earlier one"
        );
        assert_eq!(f[1].self_ns, 0);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let f = finish(&[span("x", 0, 5), span("y", 1, 2)]);
        let text = to_jsonl(&f);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"id\":1,\"parent\":0,\"name\":\"y\",\"round\":1"));
        assert_eq!(layer_totals(&f)["x"].us_per_call(), 0.004);
    }
}
