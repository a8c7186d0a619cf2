//! Benchmark-side tracing: spans `run > op > call` recorded in memory
//! around the calls into each layer and written out once, when the run
//! ends. The program under test is not instrumented here; what happens
//! inside a call shows up through the public `Telemetry` timers.

use std::io::{self, Write};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the log.
    pub id: u32,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u32>,
    /// The operation this span belongs to; spans of one operation
    /// share it (`None` outside any operation).
    pub op: Option<u32>,
    /// Layer boundary crossed, e.g. `rlnoc-core.Experiment::run`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log. A disabled log (untraced run) records
/// nothing and reads no clock. Each load thread owns its own log with
/// a distinct id range and the same origin; [`SpanLog::absorb`] merges
/// them.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

/// Handle of a span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span must be closed with SpanLog::close"]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    op: Option<u32>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// Id to name as the parent of child spans.
    pub fn id(&self) -> Option<u32> {
        (self.id != u32::MAX).then_some(self.id)
    }
}

impl SpanLog {
    /// A log whose ids start at `first_id` (give each thread its own
    /// range) and whose clock starts at `origin`.
    pub fn new(enabled: bool, origin: Instant, first_id: u32) -> Self {
        Self {
            enabled,
            origin,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from; logs that will be merged
    /// share it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Starts a span.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: Option<u32>) -> Open {
        if !self.enabled {
            return Open {
                id: u32::MAX,
                parent: None,
                op: None,
                name,
                start_ns: 0,
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span and stores it.
    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, op);
        let out = f();
        self.close(open);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Moves another thread's spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in ns, of the spans called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Median duration, in ns, of the spans called `name`.
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ns(name))
    }

    /// Writes the log as JSON lines, in start order.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by_key(|s| (s.start_ns, s.id));
        for s in order {
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.op),
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(s, &self.spans),
            )?;
        }
        w.flush()
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in kids {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    span.duration_ns() - covered
}
