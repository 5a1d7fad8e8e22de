//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a request id (query id, batch seq or bucket
//! boundary), start and end, and the span that caused it. Spans are
//! kept in memory and written out when the run ends. A span's self
//! time is its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{json_str, ratio};

/// Index of an open or closed span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    req: i64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// The span store of one traced run. Every method is a no-op on a
/// disabled tracer, so the untraced path pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the tracer's epoch for an instant taken
    /// elsewhere (0 for instants before the epoch).
    fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, req: i64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            req,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            if let Some(span) = self.spans.lock().expect("span store poisoned").get_mut(id) {
                span.end_ns = end_ns;
            }
        }
    }

    /// Records a finished span between two instants.
    pub fn record(
        &self,
        name: &'static str,
        req: i64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            req,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        req: i64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                json_str(s.name),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per-name totals: spans, total time, self time, and the share of
    /// the total that child spans cover.
    pub fn summary(&self) -> Vec<SpanTotals> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if let Some(list) = children.get_mut(p) {
                    list.push(i);
                }
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(s, children[i].iter().map(|&c| &spans[c]));
            let child_sum: u64 = children[i]
                .iter()
                .map(|&c| spans[c].end_ns.saturating_sub(spans[c].start_ns))
                .sum();
            let parent = s.parent.map(|p| spans[p].name).unwrap_or("");
            let t = by_name.entry(s.name).or_insert_with(|| SpanTotals {
                name: s.name,
                parent,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                child_sum_ns: 0,
                has_children: false,
            });
            t.count += 1;
            t.total_ns += dur;
            t.child_sum_ns += child_sum;
            t.self_ns += dur - covered.min(dur);
            t.has_children |= !children[i].is_empty();
        }
        by_name.into_values().collect()
    }

    /// Prints the per-span self-time table with, for every span that
    /// has children, the share of it they cover and their summed time
    /// over its time.
    pub fn print_report(&self) {
        let totals = self.summary();
        println!(
            "# trace: self time by span; coverage = share of the span its children cover, \
             child_sum = children's summed time / the span's time"
        );
        println!(
            "trace {:<26} {:<22} {:>8} {:>12} {:>12} {:>9} {:>9}",
            "span", "parent", "count", "total_ms", "self_ms", "coverage", "child_sum"
        );
        for t in &totals {
            let (coverage, child_sum) = if t.has_children {
                (
                    format!("{:.3}", t.coverage()),
                    format!("{:.3}", ratio(t.child_sum_ns as f64, t.total_ns as f64)),
                )
            } else {
                ("-".to_string(), "-".to_string())
            };
            println!(
                "trace {:<26} {:<22} {:>8} {:>12.3} {:>12.3} {:>9} {:>9}",
                t.name,
                t.parent,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                coverage,
                child_sum
            );
        }
    }
}

/// Aggregated spans of one name.
#[derive(Debug, Clone)]
pub struct SpanTotals {
    /// Span name.
    pub name: &'static str,
    /// Name of the parent of the first span seen with this name.
    pub parent: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Summed durations of the direct children (exceeds `total_ns` when
    /// children run in parallel).
    pub child_sum_ns: u64,
    /// Whether any span of this name has children.
    pub has_children: bool,
}

impl SpanTotals {
    /// Share of the total time covered by child spans.
    pub fn coverage(&self) -> f64 {
        ratio((self.total_ns - self.self_ns) as f64, self.total_ns as f64)
    }
}

/// Nanoseconds of `parent` covered by the union of `children`'s
/// intervals (clipped to the parent).
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            req: 0,
            start_ns,
            end_ns,
            parent: None,
        }
    }

    #[test]
    fn coverage_is_the_union_of_children_clipped_to_the_parent() {
        let parent = span(100, 200);
        let kids = [
            span(90, 120),
            span(110, 130),
            span(150, 160),
            span(190, 250),
        ];
        assert_eq!(covered_ns(&parent, kids.iter()), 30 + 10 + 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", 1, None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.summary().is_empty());
    }
}
