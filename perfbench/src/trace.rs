//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), an optional tag (backend or
//! function), start and end, its parent span and the job it belongs
//! to. Spans stay in memory until the run ends. A span's self time is
//! its duration minus the part of it that its children cover.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans; when disabled, [`Tracer::span`] only runs the
/// closure, so the same replay code measures the untraced baseline.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        job: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children of one parent never overlap here, but
/// the union keeps the arithmetic right if they did).
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
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Per-layer totals: call count, busy time (sum of span durations) and
/// self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Fold spans into per-layer totals, in first-appearance order.
pub fn layer_totals(spans: &[Span]) -> Vec<(&'static str, LayerTotals)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, LayerTotals)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let layer = s.layer();
        let at = match out.iter().position(|(l, _)| *l == layer) {
            Some(at) => at,
            None => {
                out.push((layer, LayerTotals::default()));
                out.len() - 1
            }
        };
        let t = &mut out[at].1;
        t.calls += 1;
        t.busy_ns += s.ns();
        t.self_ns += self_ns;
    }
    out
}

/// Share of root-span time that no child span covers: time the replay
/// spent between layer calls rather than inside one.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut root, mut uncovered) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            root += s.ns();
            uncovered += self_ns;
        }
    }
    if root == 0 {
        0.0
    } else {
        uncovered as f64 / root as f64
    }
}

/// Summed duration (ns) and count of spans named `name` with tag `tag`
/// (any tag when `tag` is `None`).
pub fn sum(spans: &[Span], name: &str, tag: Option<&str>) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
        .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("replay.job", 0, 100, None),
            span("engine.run", 10, 40, Some(0)),
            span("core.step", 15, 25, Some(1)),
            span("jsonl.encode", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert!((unattributed_share(&spans) - 0.30).abs() < 1e-12);
        let totals = layer_totals(&spans);
        let get = |l: &str| totals.iter().find(|(n, _)| *n == l).map(|(_, t)| *t);
        assert_eq!(
            get("engine"),
            Some(LayerTotals {
                calls: 1,
                busy_ns: 30,
                self_ns: 20
            })
        );
        assert_eq!(get("core").map(|t| t.self_ns), Some(10));
        assert_eq!(get("replay").map(|t| t.self_ns), Some(30));
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("replay.job", 0, 100, None),
            span("a.x", 10, 60, Some(0)),
            span("b.y", 40, 120, Some(0)),
        ];
        // Children cover [10,100) inside the parent: 90 ns.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("replay.job", "", 7, |t| {
            t.span("jsonl.parse", "", 7, |_| 1) + t.span("engine.run", "rtl", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].parent, s[2].parent, s[2].tag),
            (Some(0), Some(0), "rtl")
        );
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns && x.job == 7));
        assert_eq!(sum(s, "engine.run", Some("rtl")).1, 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("replay.job", "", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
