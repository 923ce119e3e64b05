//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends (choosing-metrics §4).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call (or frame-sized chunk of calls) into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work inside the span (elements, or frames for client spans).
    pub count: u32,
}

/// Busy and self time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub spans: u64,
    pub count: u64,
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index (a parent for others).
    pub fn record(&mut self, name: &'static str, parent: u32, start_ns: u64, count: u32) -> u32 {
        let end_ns = self.now();
        self.push(Span { name, parent, start_ns, end_ns, count })
    }

    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).unwrap_or(ROOT)
    }

    /// Opens a span that will have children; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.now();
        self.push(Span { name, parent, start_ns, end_ns: start_ns, count: 0 })
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32, count: u32) {
        let end = self.now();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
            s.count = count;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of one recorded span.
    pub fn duration_ns(&self, id: u32) -> u64 {
        self.spans.get(id as usize).map_or(0, |s| s.end_ns.saturating_sub(s.start_ns))
    }

    /// Per-name totals. Self time = span − children.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let busy = s.end_ns.saturating_sub(s.start_ns);
            let l = out.entry(s.name).or_default();
            l.spans += 1;
            l.count += u64::from(s.count);
            l.busy_ns += busy;
            l.self_ns += busy.saturating_sub(children);
        }
        out
    }

    /// Busy nanoseconds of one layer (0 when it recorded nothing).
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// The per-layer totals as JSON rows, and as a table on standard error.
    pub fn waterfall(&self, title: &str) -> Json {
        eprintln!("{title}: layer, spans, units of work, busy ms, self ms, busy ns per unit");
        let rows = self
            .layers()
            .into_iter()
            .map(|(name, l)| {
                eprintln!(
                    "  {name:<28} {:>8} {:>10} {:>10.2} {:>10.2} {:>10.1}",
                    l.spans,
                    l.count,
                    l.busy_ns as f64 / 1e6,
                    l.self_ns as f64 / 1e6,
                    l.busy_ns as f64 / l.count.max(1) as f64
                );
                Json::obj([
                    ("layer", Json::str(name)),
                    ("spans", Json::Num(l.spans as f64)),
                    ("count", Json::Num(l.count as f64)),
                    ("busy_ns", Json::Num(l.busy_ns as f64)),
                    ("self_ns", Json::Num(l.self_ns as f64)),
                ])
            })
            .collect();
        Json::Arr(rows)
    }

    /// `{names: [...], spans: [[name, parent, start_ns, end_ns, count], ...]}`
    /// with names indexed, so hundreds of thousands of spans stay compact.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                let parent = if s.parent == ROOT { -1.0 } else { f64::from(s.parent) };
                Json::Arr(vec![
                    Json::Num(idx as f64),
                    Json::Num(parent),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(f64::from(s.count)),
                ])
            })
            .collect();
        Json::obj([
            (
                "columns",
                Json::Arr(["name", "parent", "start_ns", "end_ns", "count"].map(Json::str).into()),
            ),
            ("names", Json::Arr(names.into_iter().map(Json::str).collect())),
            ("spans", Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let frame =
            t.push(Span { name: "frame", parent: ROOT, start_ns: 0, end_ns: 100, count: 8 });
        t.push(Span { name: "decode", parent: frame, start_ns: 0, end_ns: 30, count: 8 });
        t.push(Span { name: "shield", parent: frame, start_ns: 30, end_ns: 90, count: 8 });
        let frame2 =
            t.push(Span { name: "frame", parent: ROOT, start_ns: 100, end_ns: 150, count: 4 });
        t.push(Span { name: "decode", parent: frame2, start_ns: 100, end_ns: 120, count: 4 });
        let l = t.layers();
        assert_eq!(l["frame"], Layer { spans: 2, count: 12, busy_ns: 150, self_ns: 40 });
        assert_eq!(l["decode"], Layer { spans: 2, count: 12, busy_ns: 50, self_ns: 50 });
        assert_eq!(t.busy_ns("shield"), 60);
        assert_eq!(t.busy_ns("absent"), 0);
        let j = t.to_json();
        assert_eq!(j.get("names").map(|n| n.as_arr().len()), Some(3));
        assert_eq!(j.get("spans").map(|n| n.as_arr().len()), Some(5));
    }
}
