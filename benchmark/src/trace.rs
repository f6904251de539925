//! In-memory span tracing recorded from the benchmark's own wrappers.
//!
//! A span has a layer name, a start, an end and the span that was open when
//! it began (its parent). The tree is workload → step spans (`sim.execute`,
//! `sim.settle`, `store.recover`) → `causal.*` / `net.*`. Spans stay in memory
//! until the run ends; [`dump`] writes them out and [`parse`] reads them back.
//! With tracing off, [`span`] is one thread-local flag test and no clock read.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// A traced layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One measured phase of a workload (the root span).
    Workload,
    /// One `Cluster::execute` call.
    SimExecute,
    /// One `Cluster::settle` call.
    SimSettle,
    /// One `Cluster::crash_and_recover` call.
    StoreRecover,
    /// `Collector::on_message` of the wrapped causal collector.
    CausalOnMessage,
    /// `Collector::apply_delta` / `apply_snapshot`.
    CausalApplyDelta,
    /// The lazy-rule hooks: `on_export`, `on_third_party_send`,
    /// `on_receive_ref`.
    CausalHooks,
    /// `Collector::checkpoint_state`.
    CausalCheckpoint,
    /// `Collector::restore_state`.
    CausalRestore,
    /// `Transport::send`.
    NetSend,
    /// `Transport::poll`.
    NetPoll,
}

impl Layer {
    /// Every layer, in index order.
    #[cfg(test)]
    const ALL: [Layer; 11] = [
        Layer::Workload,
        Layer::SimExecute,
        Layer::SimSettle,
        Layer::StoreRecover,
        Layer::CausalOnMessage,
        Layer::CausalApplyDelta,
        Layer::CausalHooks,
        Layer::CausalCheckpoint,
        Layer::CausalRestore,
        Layer::NetSend,
        Layer::NetPoll,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "workload",
            Layer::SimExecute => "sim.execute",
            Layer::SimSettle => "sim.settle",
            Layer::StoreRecover => "store.recover",
            Layer::CausalOnMessage => "causal.on_message",
            Layer::CausalApplyDelta => "causal.apply_delta",
            Layer::CausalHooks => "causal.hooks",
            Layer::CausalCheckpoint => "causal.checkpoint_state",
            Layer::CausalRestore => "causal.restore_state",
            Layer::NetSend => "net.send",
            Layer::NetPoll => "net.poll",
        }
    }

    #[cfg(test)]
    fn from_name(name: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == name)
    }

    /// True for the per-step spans opened around cluster calls.
    pub fn is_step(self) -> bool {
        matches!(
            self,
            Layer::SimExecute | Layer::SimSettle | Layer::StoreRecover
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span; times are nanoseconds since the trace started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary.
    pub layer: Layer,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A finished trace: the spans plus the counts recorded at the same
/// boundaries.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Edges (created + destroyed) in the deltas handed to `apply_delta`.
    pub delta_edges: u64,
    /// Verdicts the collector handed back through `take_verdicts`.
    pub verdicts: u64,
}

struct Tracer {
    origin: Instant,
    trace: Trace,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier trace.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            trace: Trace::default(),
            open: Vec::new(),
        });
    });
    ON.with(|on| on.set(true));
}

/// Stops recording on this thread and returns what was recorded.
///
/// # Panics
///
/// Panics when a span is still open or tracing was never started.
pub fn stop() -> Trace {
    ON.with(|on| on.set(false));
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::stop without trace::start");
    assert!(tracer.open.is_empty(), "trace stopped inside a span");
    tracer.trace
}

/// True while this thread records.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

fn with_tracer(f: impl FnOnce(&mut Tracer)) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            f(tracer);
        }
    });
}

/// Runs `f` inside a span of `layer` when tracing is on.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let mut index = 0;
    with_tracer(|t| {
        index = t.trace.spans.len() as u32;
        let now = t.origin.elapsed().as_nanos() as u64;
        t.trace.spans.push(Span {
            layer,
            start_ns: now,
            end_ns: now,
            parent: t.open.last().copied(),
        });
        t.open.push(index);
    });
    let out = f();
    with_tracer(|t| {
        let now = t.origin.elapsed().as_nanos() as u64;
        t.trace.spans[index as usize].end_ns = now;
        t.open.pop();
    });
    out
}

/// Counts delta edges (no-op with tracing off).
pub fn count_delta_edges(n: u64) {
    if enabled() {
        with_tracer(|t| t.trace.delta_edges += n);
    }
}

/// Counts verdicts (no-op with tracing off).
pub fn count_verdicts(n: u64) {
    if enabled() {
        with_tracer(|t| t.trace.verdicts += n);
    }
}

/// Merges `[start, end)` intervals and returns the total length covered.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

fn children(spans: &[Span]) -> Vec<Vec<u32>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent as usize].push(i as u32);
        }
    }
    children
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once; a child's
/// time outside its parent's interval does not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let children = children(spans);
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let clipped = kids
                .iter()
                .map(|&k| &spans[k as usize])
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            span.duration_ns() - covered(clipped)
        })
        .collect()
}

/// Checks that every step span's self time plus its children's durations
/// adds up to its duration, i.e. its children run one at a time inside it.
///
/// # Errors
///
/// Names the first step span whose time is not accounted for.
pub fn check_step_accounting(spans: &[Span]) -> Result<(), String> {
    let selfs = self_times(spans);
    let children = children(spans);
    for (i, span) in spans.iter().enumerate() {
        if !span.layer.is_step() {
            continue;
        }
        let kids: u64 = children[i]
            .iter()
            .map(|&k| spans[k as usize].duration_ns())
            .sum();
        if selfs[i] + kids != span.duration_ns() {
            return Err(format!(
                "span {i} ({}): self {} ns + children {} ns != duration {} ns",
                span.layer.name(),
                selfs[i],
                kids,
                span.duration_ns()
            ));
        }
    }
    Ok(())
}

/// Per-layer totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans of the layer.
    pub calls: u64,
    /// Sum of the spans' durations.
    pub busy_ns: u64,
    /// Sum of the spans' self times.
    pub self_ns: u64,
}

/// Totals per layer, indexed like [`Layer::ALL`].
pub fn totals(spans: &[Span]) -> [LayerTotals; 11] {
    let mut out = [LayerTotals::default(); 11];
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let t = &mut out[span.layer.index()];
        t.calls += 1;
        t.busy_ns += span.duration_ns();
        t.self_ns += own;
    }
    out
}

/// The totals of one layer.
pub fn layer(totals: &[LayerTotals; 11], layer: Layer) -> LayerTotals {
    totals[layer.index()]
}

const HEADER: &str = "# ggd-outside-bench spans v1: name start_ns end_ns parent";

/// Writes spans as text, one per line; `-` marks a root span.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 32 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for s in spans {
        let _ = write!(out, "{} {} {} ", s.layer.name(), s.start_ns, s.end_ns);
        match s.parent {
            Some(p) => {
                let _ = writeln!(out, "{p}");
            }
            None => out.push_str("-\n"),
        }
    }
    out
}

/// Reads spans written by [`dump`] (the round-trip test proves the dump
/// loses nothing).
///
/// # Errors
///
/// Reports the first malformed line.
#[cfg(test)]
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err("missing span dump header".to_owned());
    }
    let mut spans = Vec::new();
    for (n, line) in lines.enumerate() {
        let bad = || format!("line {}: malformed span `{line}`", n + 2);
        let fields: Vec<&str> = line.split(' ').collect();
        let [name, start, end, parent] = fields[..] else {
            return Err(bad());
        };
        let layer = Layer::from_name(name).ok_or_else(bad)?;
        let start_ns: u64 = start.parse().map_err(|_| bad())?;
        let end_ns: u64 = end.parse().map_err(|_| bad())?;
        let parent = match parent {
            "-" => None,
            p => Some(p.parse::<u32>().map_err(|_| bad())?),
        };
        if end_ns < start_ns || parent.is_some_and(|p| p as usize >= spans.len()) {
            return Err(bad());
        }
        spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            s(Layer::Workload, 0, 100, None),
            s(Layer::SimSettle, 10, 60, Some(0)),
            s(Layer::NetPoll, 12, 20, Some(1)),
            s(Layer::CausalOnMessage, 20, 35, Some(1)),
            s(Layer::SimExecute, 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 27, 8, 15, 20]);
        assert_eq!(check_step_accounting(&spans), Ok(()));
        let t = totals(&spans);
        assert_eq!(layer(&t, Layer::SimSettle).self_ns, 27);
        assert_eq!(layer(&t, Layer::SimSettle).busy_ns, 50);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            s(Layer::SimSettle, 100, 200, None),
            s(Layer::CausalOnMessage, 110, 150, Some(0)),
            s(Layer::CausalOnMessage, 140, 170, Some(0)),
            // Sticks out past the parent's end: only 190..200 counts.
            s(Layer::NetPoll, 190, 230, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // Overlapping children do not add up to the parent's duration.
        assert!(check_step_accounting(&spans).is_err());
    }

    #[test]
    fn recorded_spans_nest_and_account_for_their_time() {
        start();
        span(Layer::Workload, || {
            span(Layer::SimSettle, || {
                span(Layer::NetPoll, || ());
                span(Layer::CausalOnMessage, || count_verdicts(2));
            });
        });
        let trace = stop();
        assert!(!enabled());
        let parents: Vec<_> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(1)]);
        assert_eq!(trace.verdicts, 2);
        assert_eq!(check_step_accounting(&trace.spans), Ok(()));
        // Off: nothing is recorded and nothing is counted.
        span(Layer::NetSend, || count_verdicts(1));
    }

    #[test]
    fn dump_round_trips() {
        let spans = vec![
            s(Layer::Workload, 0, 1_000_000, None),
            s(Layer::StoreRecover, 5, 900, Some(0)),
            s(Layer::CausalRestore, 6, 800, Some(1)),
            s(Layer::NetSend, 901, 950, Some(0)),
        ];
        let text = dump(&spans);
        assert_eq!(parse(&text), Ok(spans));
        assert!(parse("nonsense").is_err());
        assert!(parse(&format!("{HEADER}\nsim.settle 5 4 -\n")).is_err());
        assert!(parse(&format!("{HEADER}\nsim.settle 1 4 3\n")).is_err());
    }
}
