//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark hands to the engine
//! (runner, golden, fork, group, build, inject, campaign source) and
//! closed when the call returns. Spans nest per thread, so a span's
//! parent is whatever span the same thread had open when it started.
//! Spans stay in memory until [`Spans::write_csv`] at the end of the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The closure boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Campaign::runner`: one from-scratch case, or the golden run.
    Runner,
    /// `ForkSpec::golden`: the checkpointed golden run.
    Golden,
    /// `ForkSpec::fork`: one case forked from a snapshot.
    Fork,
    /// `BatchSpec::run`: one lane group.
    Group,
    /// The benchmark's circuit build closure.
    Build,
    /// The benchmark's fault inject closure.
    Inject,
    /// The `CampaignSource` the fleet resolves campaigns through.
    Source,
}

impl Kind {
    /// The span name written to the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Runner => "campaign.runner",
            Kind::Golden => "fork.golden",
            Kind::Fork => "fork.case",
            Kind::Group => "batch.group",
            Kind::Build => "circuits.build",
            Kind::Inject => "faults.inject",
            Kind::Source => "serve.source",
        }
    }

    /// True for the calls the engine makes directly; their summed
    /// durations are the closures' busy time.
    pub fn top_level(self) -> bool {
        !matches!(self, Kind::Build | Kind::Inject)
    }
}

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique, in opening order.
    pub seq: u64,
    /// `seq` of the enclosing span on the same thread.
    pub parent: Option<u64>,
    /// Which boundary.
    pub kind: Kind,
    /// The case index, or the first index of a group; `u64::MAX` for
    /// golden runs and source calls.
    pub id: u64,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall time of the call minus the time its children cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Id recorded for spans that belong to no case.
pub const NO_CASE: u64 = u64::MAX;

/// Per-thread stack of open spans: `(seq, child_ns so far)`.
type OpenStack = Vec<(u64, u64)>;

thread_local! {
    static OPEN: RefCell<OpenStack> = const { RefCell::new(Vec::new()) };
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    closed: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            closed: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span.
    pub fn record<T>(&self, kind: Kind, id: u64, f: impl FnOnce() -> T) -> T {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map(|&(p, _)| p);
            open.push((seq, 0));
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let child_ns = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (top, child_ns) = open.pop().expect("span stack underflow");
            debug_assert_eq!(top, seq, "spans close in opening order");
            if let Some(outer) = open.last_mut() {
                outer.1 += end_ns - start_ns;
            }
            child_ns
        });
        self.closed.lock().expect("span store poisoned").push(Span {
            seq,
            parent,
            kind,
            id,
            start_ns,
            end_ns,
            child_ns,
        });
        out
    }

    /// Every span closed so far, in closing order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.closed.lock().expect("span store poisoned").clone()
    }

    /// Writes every closed span as CSV: one header line, then
    /// `seq,parent,name,id,start_ns,end_ns,self_ns` per span.
    ///
    /// # Errors
    ///
    /// Propagates the file write failure.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = String::from("seq,parent,name,id,start_ns,end_ns,self_ns\n");
        for s in &spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let id = if s.id == NO_CASE {
                String::new()
            } else {
                s.id.to_string()
            };
            let _ = writeln!(
                out,
                "{},{parent},{},{id},{},{},{}",
                s.seq,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.self_ns()
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_subtract_child_time() {
        let spans = Spans::default();
        spans.record(Kind::Group, 0, || {
            spans.record(Kind::Build, NO_CASE, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let all = spans.snapshot();
        let group = all.iter().find(|s| s.kind == Kind::Group).unwrap();
        let build = all.iter().find(|s| s.kind == Kind::Build).unwrap();
        assert_eq!(build.parent, Some(group.seq));
        assert_eq!(group.parent, None);
        assert_eq!(group.child_ns, build.dur_ns());
        assert!(group.self_ns() >= 5_000_000);
        assert!(group.self_ns() < group.dur_ns());
    }
}
