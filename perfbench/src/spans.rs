//! In-memory wall-clock spans recorded around calls into each layer, and
//! the per-layer self-time table computed from them.
//!
//! A [`Tracer`] is owned by one thread. Spans nest: [`Tracer::enter`]
//! pushes onto a stack, [`Tracer::exit`] pops, and the span below on the
//! stack is the parent. Each span carries the id of the unit of work
//! (pipeline iteration or daemon job) it belongs to. A disabled tracer
//! records nothing and `enter`/`exit` cost one branch, so the untraced
//! pass runs the same code as the traced one.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Pipeline iteration or job the span belongs to.
    pub unit: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, unit: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, unit);
        let out = f();
        self.exit(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed spans at end of pass");
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Concatenates the spans of several tracers (one per thread), rebasing
/// parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union, so overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    pub calls: u64,
    pub self_ms: f64,
    /// Share of the summed root-span time.
    pub share: f64,
}

/// Aggregates self time by span name. Shares are taken of the summed
/// duration of root spans (the units of work), so the rows of a fully
/// spanned pass add up to 1.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let mut by: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, &st) in spans.iter().zip(&selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += st;
    }
    let mut rows: Vec<LayerRow> = by
        .into_iter()
        .map(|(layer, (calls, ns))| LayerRow {
            layer,
            calls,
            self_ms: ns as f64 / 1e6,
            share: if root_ns == 0 {
                0.0
            } else {
                ns as f64 / root_ns as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    rows
}

/// Total duration of spans named `name` within each unit, in ms, one value
/// per unit that has such a span (in unit order).
pub fn per_unit_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by.entry(s.unit).or_default() += s.dur_ns();
    }
    by.into_values().map(|ns| ns as f64 / 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.enter("iteration", 3);
        let v = t.span("simulate", 3, || 42);
        t.exit(root);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, Instant::now());
        let o = off.enter("iteration", 0);
        off.exit(o);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a by 10
            span("c", 70, 80, Some(0)),
            span("inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 30 - 8, 30, 10, 8]);
    }

    #[test]
    fn layer_shares_of_a_fully_spanned_pass_sum_to_one() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("simulate", 0, 70, Some(0)),
            span("graph", 70, 100, Some(0)),
            span("iteration", 100, 150, None),
            span("simulate", 100, 140, Some(3)),
            span("graph", 140, 150, Some(3)),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows[0].layer, "simulate");
        assert_eq!(rows[0].calls, 2);
        assert!((rows[0].self_ms - 110e-6).abs() < 1e-12);
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let iter = rows.iter().find(|r| r.layer == "iteration").unwrap();
        assert_eq!(iter.share, 0.0);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("job", 0, 10, None), span("submit", 0, 5, Some(0))];
        let b = vec![span("job", 2, 12, None), span("stream", 3, 9, Some(0))];
        let m = merge(vec![a, b]);
        assert_eq!(
            m.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), None, Some(2)]
        );
    }

    #[test]
    fn per_unit_sums_repeated_spans() {
        let mut spans = vec![
            span("export", 0, 10, None),
            span("export", 10, 15, None),
            span("export", 20, 22, None),
        ];
        spans[2].unit = 1;
        assert_eq!(per_unit_ms(&spans, "export"), vec![15e-6, 2e-6]);
    }
}
