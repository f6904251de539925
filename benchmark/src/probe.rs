//! The benchmark's wrappers around the program's layers: a [`Collector`]
//! that forwards to the causal collector and a [`Transport`] that forwards to
//! the simulated network. They record spans and counts from outside, so the
//! program itself carries no benchmark code.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ggd_heap::{EdgeDelta, ReachabilitySnapshot};
use ggd_net::{Delivery, Frame, MessageClass, NetMetrics, SimNetwork, Transport, WireCodec};
use ggd_sim::{Collector, MembershipAnnouncement};
use ggd_types::{GlobalAddr, SiteId};

use crate::trace::{self, Layer};

/// Collector time summed across worker threads (`ParallelCluster`'s
/// workers never record spans; they add to these counters instead).
#[derive(Debug, Default)]
pub struct Busy {
    ns: AtomicU64,
}

impl Busy {
    /// Total busy time so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Runs `f` inside a `layer` span, and adds its time to `busy` if present.
fn timed<R>(busy: &Option<Arc<Busy>>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match busy {
        None => trace::span(layer, f),
        Some(busy) => {
            let start = Instant::now();
            let out = trace::span(layer, f);
            busy.ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        }
    }
}

/// A collector that forwards every call to `inner`, timing the engine work.
/// Every trait method is forwarded explicitly, defaults included, so the
/// wrapped collector behaves exactly as it does unwrapped.
#[derive(Debug, Clone)]
pub struct Probed<C> {
    inner: C,
    busy: Option<Arc<Busy>>,
}

impl<C> Probed<C> {
    /// Wraps `inner`; with `busy`, call times are also summed there.
    pub fn new(inner: C, busy: Option<Arc<Busy>>) -> Self {
        Probed { inner, busy }
    }
}

impl<C: Collector> Collector for Probed<C> {
    type Msg = C::Msg;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        timed(&self.busy, Layer::CausalHooks, || {
            self.inner.on_export(exported, recipient)
        });
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        timed(&self.busy, Layer::CausalHooks, || {
            self.inner.on_third_party_send(target, recipient)
        });
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        timed(&self.busy, Layer::CausalHooks, || {
            self.inner.on_receive_ref(recipient, target)
        });
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        timed(&self.busy, Layer::CausalApplyDelta, || {
            self.inner.apply_snapshot(snapshot)
        });
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, snapshot: &ReachabilitySnapshot) {
        if trace::enabled() {
            let edges = delta.edges.iter();
            trace::count_delta_edges(
                edges
                    .map(|v| (v.created.len() + v.destroyed.len()) as u64)
                    .sum(),
            );
        }
        timed(&self.busy, Layer::CausalApplyDelta, || {
            self.inner.apply_delta(delta, snapshot)
        });
    }

    fn needs_every_sync(&self) -> bool {
        self.inner.needs_every_sync()
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        timed(&self.busy, Layer::CausalCheckpoint, || {
            self.inner.checkpoint_state()
        })
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        timed(&self.busy, Layer::CausalRestore, || {
            self.inner.restore_state(bytes)
        })
    }

    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        self.inner.on_membership(ann);
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.inner.mentions_site(site)
    }

    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.obs_counters()
    }

    fn on_message(&mut self, from: SiteId, message: Self::Msg) {
        timed(&self.busy, Layer::CausalOnMessage, || {
            self.inner.on_message(from, message)
        });
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        self.inner.take_outgoing()
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        let verdicts = self.inner.take_verdicts();
        trace::count_verdicts(verdicts.len() as u64);
        verdicts
    }
}

/// What the transport wrapper counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// Control messages sent.
    pub control_msgs: u64,
    /// Mutator (reference-carrying) messages sent.
    pub mutator_msgs: u64,
    /// Encoded wire bytes of the control messages (zero unless counting).
    pub control_bytes: u64,
    /// Encoded wire bytes of the mutator messages (zero unless counting).
    pub mutator_bytes: u64,
    /// Most messages in flight at once.
    pub peak_pending: u64,
}

/// A transport that forwards to a [`SimNetwork`] and counts what crosses
/// it. Byte counts are the exact framed length (`ggd_net::Frame` over the
/// payload's [`WireCodec`]), never a size estimate; encoding costs time, so
/// it is switched on only for the untimed counting pass.
pub struct Wire<P> {
    inner: SimNetwork<P>,
    count_bytes: bool,
    counts: Rc<Cell<WireCounts>>,
}

impl<P> Wire<P> {
    /// Wraps `inner`; the returned cell reads the counts at any time.
    pub fn new(inner: SimNetwork<P>, count_bytes: bool) -> (Self, Rc<Cell<WireCounts>>) {
        let counts = Rc::new(Cell::new(WireCounts::default()));
        let wire = Wire {
            inner,
            count_bytes,
            counts: Rc::clone(&counts),
        };
        (wire, counts)
    }
}

impl<P: WireCodec> Transport<P> for Wire<P> {
    fn send(&mut self, from: SiteId, to: SiteId, payload: P) {
        let mut counts = self.counts.get();
        let bytes = if self.count_bytes {
            Frame::encode(&payload).wire_len() as u64
        } else {
            0
        };
        match payload.class() {
            MessageClass::Control => {
                counts.control_msgs += 1;
                counts.control_bytes += bytes;
            }
            MessageClass::Mutator => {
                counts.mutator_msgs += 1;
                counts.mutator_bytes += bytes;
            }
        }
        trace::span(Layer::NetSend, || self.inner.send(from, to, payload));
        counts.peak_pending = counts.peak_pending.max(self.inner.pending() as u64);
        self.counts.set(counts);
    }

    fn poll(&mut self) -> Option<Delivery<P>> {
        trace::span(Layer::NetPoll, || self.inner.deliver_next())
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.inner.metrics().clone()
    }
}
