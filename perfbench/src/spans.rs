//! Spans the benchmark records around its own calls into the program:
//! kept in memory during a traced run and written out when it ends.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Children may overlap one another (two
//! client connections in flight under one window span), so coverage is
//! the length of the union of the children's intervals, clipped to the
//! parent.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request (or event) identifier shared by the spans of one request.
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// `[start, end)` minus the union of `children` clipped to it.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in children {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): covered = 50, self = 50.
        assert_eq!(self_time(0, 100, vec![(10, 40), (30, 60)]), 50);
        // A child nested inside another covers nothing extra.
        assert_eq!(self_time(0, 100, vec![(10, 90), (20, 30)]), 20);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time(10, 20, vec![(0, 15), (18, 40)]), 3);
        // Disjoint children, given out of order.
        assert_eq!(self_time(0, 10, vec![(6, 8), (1, 2)]), 7);
        assert_eq!(self_time(0, 10, vec![]), 10);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut r = Recorder::new(t0);
        let window = r.record("window", None, 0, at(0), at(100));
        r.record("request", Some(window), 1, at(10), at(40));
        r.record("request", Some(window), 2, at(30), at(60));
        let selfs = r.self_times_ns();
        assert_eq!(selfs, vec![50_000_000, 30_000_000, 30_000_000]);
        let by_name = r.self_ms_by_name();
        assert_eq!(by_name["window"], 50.0);
        assert_eq!(by_name["request"], 60.0);
        assert_eq!(r.durations_ms("request"), vec![30.0, 30.0]);
    }
}
