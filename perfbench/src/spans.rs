//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end (nanoseconds from the
//! recorder's origin), an optional parent and the id of the unit it
//! belongs to. Spans are kept in memory and written out once, when the
//! run ends. A span's *self time* is its duration minus the part of it
//! that its children cover; overlapping children are merged first, so
//! concurrent children are not subtracted twice.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or call name, e.g. `tcp.request`.
    pub name: &'static str,
    /// Start, ns from the recorder origin.
    pub start: u64,
    /// End, ns from the recorder origin (`end >= start`).
    pub end: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The workload unit this span serves.
    pub unit: u64,
}

/// Collects spans; nothing is written until [`Recorder::write_tsv`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// An empty recorder whose clock starts at `origin`; recorders that
    /// share an origin can be merged with [`Recorder::absorb`].
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the origin (0 if earlier).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records the interval `[start, end]` given as instants.
    pub fn push_at(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        unit: u64,
    ) -> SpanId {
        self.push(name, self.at(start), self.at(end), parent, unit)
    }

    /// Appends every span of `other`, which must share this recorder's
    /// origin, keeping its parent links.
    pub fn absorb(&mut self, other: Recorder) {
        assert_eq!(self.origin, other.origin, "recorders must share an origin");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Records a finished interval and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        unit: u64,
    ) -> SpanId {
        assert!(end >= start, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`, in ns.
    pub fn self_time(&self, id: SpanId) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        let s = &self.spans[id];
        self_time(s.start, s.end, &children)
    }

    /// Writes every span as tab-separated
    /// `id name start_ns end_ns parent unit` lines.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tunit")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.unit
            )?;
        }
        Ok(())
    }
}

/// `end - start` minus the length of the union of `children` clipped to
/// `[start, end]`.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn disjoint_children_are_each_subtracted() {
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn overlapping_children_are_merged_before_subtracting() {
        // Two pipelined requests overlapping on [20, 30]: covered 10..40.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        // One child inside another.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Touching intervals merge without double counting.
        assert_eq!(self_time(0, 100, &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(50, 100, &[(0, 40)]), 50);
        assert_eq!(self_time(50, 100, &[(0, 200)]), 0);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let mut r = Recorder::new();
        let root = r.push("unit", 0, 100, None, 7);
        r.push("tcp.request", 10, 60, Some(root), 7);
        r.push("tcp.request", 40, 80, Some(root), 7);
        let leaf = r.push("wire.decode", 15, 25, Some(1), 7);
        assert_eq!(r.self_time(root), 30);
        assert_eq!(r.self_time(1), 40);
        assert_eq!(r.self_time(leaf), 10);
        let mut other = Recorder::with_origin(r.origin);
        let root2 = other.push("unit", 200, 300, None, 8);
        other.push("tcp.request", 210, 250, Some(root2), 8);
        r.absorb(other);
        assert_eq!(r.spans()[5].parent, Some(4));
        assert_eq!(r.self_time(4), 60);
        let mut out = Vec::new();
        r.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 7);
        assert!(text.contains("3\twire.decode\t15\t25\t1\t7"));
    }
}
