//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files only — around each
//! driver call and inside the delegating wrappers of [`crate::wrap`] —
//! kept in memory, and written out when the workload ends. A span names
//! the span that caused it (`parent`) and the operation it belongs to
//! (`request`: the rep-local query / request / round index).
//!
//! The recorder keeps one open-span stack, so it nests correctly only
//! while a single thread records; every traced pass runs its library
//! calls on one thread for that reason.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation index the span belongs to.
    pub request: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    // A panic while recording already fails the run; the span list
    // itself is valid at every step, so a poisoned lock is recoverable.
    RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts recording; spans opened before this call are not recorded.
pub fn start() {
    *recorder() =
        Some(Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 });
}

/// Stops recording and hands back everything recorded since [`start`].
pub fn finish() -> Vec<Span> {
    recorder().take().map(|r| r.spans).unwrap_or_default()
}

/// Sets the operation index stamped on spans opened from now on.
pub fn set_request(request: u64) {
    if let Some(r) = recorder().as_mut() {
        r.request = request;
    }
}

/// Closes its span when dropped.
#[must_use = "a span measures until its guard is dropped"]
pub struct SpanGuard(Option<u32>);

/// Opens a span named `name` under the innermost open span. A no-op
/// (one uncontended lock) while nothing is recording.
pub fn span(name: &'static str) -> SpanGuard {
    let mut guard = recorder();
    let Some(r) = guard.as_mut() else { return SpanGuard(None) };
    let idx = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans per pass");
    let parent = r.open.last().copied().unwrap_or(NO_PARENT);
    let start_ns = r.origin.elapsed().as_nanos() as u64;
    r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: r.request });
    r.open.push(idx);
    SpanGuard(Some(idx))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        if let Some(r) = recorder().as_mut() {
            r.spans[idx as usize].end_ns = r.origin.elapsed().as_nanos() as u64;
            let innermost = r.open.pop();
            debug_assert_eq!(innermost, Some(idx), "spans close innermost first");
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other and
/// stick out of the parent; both are handled by clipping and merging).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| {
            let p = &spans[s.parent as usize];
            (s.parent, s.start_ns.clamp(p.start_ns, p.end_ns), s.end_ns.clamp(p.start_ns, p.end_ns))
        })
        .collect();
    children.sort_unstable();
    let mut covered_to = 0u64;
    let mut current = NO_PARENT;
    for (parent, start, end) in children {
        if parent != current {
            current = parent;
            covered_to = 0;
        }
        let from = start.max(covered_to);
        if end > from {
            own[parent as usize] -= end - from;
            covered_to = end;
        }
    }
    own
}

/// Calls, busy time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Per-name totals over `spans`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.busy_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

/// Writes `spans` as `{"workload": .., "spans": [{name, start_ns,
/// end_ns, parent, request}, ..]}`; `parent` is an index into the same
/// array, −1 for a root.
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        write!(
            w,
            "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_the_parent() {
        let spans = [
            sp("root", 0, 100, NO_PARENT),
            sp("a", 10, 40, 0),
            sp("b", 30, 60, 0),  // overlaps a: union is 10..60
            sp("c", 90, 130, 0), // sticks out: only 90..100 counts
            sp("leaf", 35, 50, 2),
            sp("inside-a", 12, 20, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 22, 15, 40, 15, 8]);
        let by_name = summarize(&spans);
        assert_eq!(by_name["root"], NameStats { calls: 1, busy_ns: 100, self_ns: 40 });
        assert_eq!(by_name["b"], NameStats { calls: 1, busy_ns: 30, self_ns: 15 });
    }

    #[test]
    fn a_child_covering_its_parent_leaves_no_self_time() {
        let spans = [sp("p", 5, 9, NO_PARENT), sp("c", 0, 20, 0)];
        assert_eq!(self_times_ns(&spans), vec![0, 20]);
    }
}
