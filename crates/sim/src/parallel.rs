//! The parallel drive loop: site runtimes sharded across worker threads,
//! fed through mailboxes carrying resolved mutator ops and encoded wire
//! frames.
//!
//! The sequential [`Cluster`](crate::Cluster) steps every site from one
//! thread. [`ParallelCluster`] splits that loop in two:
//!
//! * **Workers** own the sites. Each of the [`ClusterConfig::workers`]
//!   threads hosts a shard of the [`Fleet`] (round robin by site id; with as
//!   many workers as sites this degenerates to one site per worker) and
//!   consumes a mailbox of commands: resolved mutator ops, inter-site wire
//!   frames, collection requests and crash/recover/membership orders.
//!   Inter-site traffic is exchanged worker-to-worker as length-prefixed
//!   encoded [`Frame`]s — the same `ggd-store`-backed codec the framed
//!   [`ThreadedNetwork`](ggd_net::ThreadedNetwork) uses — so byte metrics
//!   measure real serialized cost and no payload value ever crosses a
//!   thread boundary.
//! * **The coordinator** (the calling thread) runs the same [`Plan`] as the
//!   sequential driver — name resolution with predicted allocation
//!   addresses (workers assert the prediction), skip analysis, the crash
//!   schedule and membership sequencing — and executes its decisions as
//!   mailbox commands. Crash windows are sampled against the shared
//!   delivery clock at op dispatch and settle-round boundaries.
//!
//! Quiescence replaces the sequential settle loop's "poll until the
//! transport is empty" with a **termination barrier**: a global in-flight
//! credit counter. A worker increments it *before* handing a frame to a
//! mailbox and decrements it only after the receiving worker has fully
//! processed the frame — including enqueuing any frames that processing
//! produced — so `in_flight == 0` is a stable property: once observed
//! during a drain phase, no worker can reintroduce traffic. Each settle is
//! an op barrier (every worker has consumed its op backlog) followed by
//! rounds of drain-then-collect, exactly mirroring the sequential
//! deliver-all/collect-all rounds, until a round processes and emits
//! nothing.
//!
//! What stays deterministic and what does not: op dispatch, name
//! resolution and the skip pattern are pure functions of the scenario and
//! config, but frame arrival order across workers is scheduler-dependent —
//! like [`ThreadedNetwork`](ggd_net::ThreadedNetwork), runs are not
//! bit-reproducible. The deterministic sequential path is untouched; this
//! driver is opt-in via [`ClusterConfig::workers`].

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use ggd_heap::SiteHeap;
use ggd_mutator::Scenario;
use ggd_net::{Frame, NetMetrics};
use ggd_obs::{ObsReport, SiteObs};
use ggd_store::{MembershipAnnouncement, StoreStats};
use ggd_types::{GlobalAddr, SiteId};

use crate::cluster::ClusterConfig;
use crate::collector::{Collector, SimPayload};
use crate::fleet::{Fleet, Link};
use crate::oracle::Oracle;
use crate::plan::{Executor, Plan, SiteOp};
use crate::report::RunReport;

/// How long a worker spins on the termination barrier, or the coordinator
/// on a phase acknowledgement, before declaring the run wedged. Only a bug
/// (a lost credit, a dead worker) can exhaust it; panicking beats hanging.
const PHASE_DEADLINE: Duration = Duration::from_secs(60);

/// Counters shared by the coordinator and every worker. `in_flight` is the
/// termination barrier's credit count; the rest feed the run report.
#[derive(Debug, Default)]
struct SharedState {
    /// Frames enqueued but not yet fully processed (credit scheme: raised
    /// before the mailbox send, lowered after the handler *and its
    /// descendant sends* complete).
    in_flight: AtomicU64,
    /// High-water mark of `in_flight` — how deep the termination barrier's
    /// credit pool ever got. Reported on the settle trace event.
    credit_hwm: AtomicU64,
    /// Total frames ever enqueued — settle rounds diff this to detect
    /// collect phases that emitted traffic.
    frames_sent: AtomicU64,
    /// The logical clock: frames processed so far (the parallel analogue of
    /// the transports' delivered-messages clock).
    deliveries: AtomicU64,
    /// Wire bytes currently sitting in worker mailboxes.
    queued_bytes: AtomicU64,
    /// High-water mark of `queued_bytes`, in real encoded frame bytes.
    peak_queued_bytes: AtomicU64,
    /// Clock value of the first control-message send; `u64::MAX` = never.
    triggered_at: AtomicU64,
    /// Clock value of the latest verdict application.
    last_verdict_at: AtomicU64,
    /// Logical *scenario step* of the first control-message send;
    /// `u64::MAX` = never. Steps execute in dispatch order, so the minimum
    /// over all sends is the step of the first-triggering op — the same
    /// value the sequential driver records.
    triggered_step: AtomicU64,
    /// Logical scenario step of the latest verdict application.
    last_verdict_step: AtomicU64,
}

/// One command in a worker's mailbox. Commands that trigger runtime entry
/// points carry the coordinator's logical scenario step, so worker-side
/// probes stamp the same driver-independent timestamps the sequential
/// driver records (frames are only processed during globally synchronized
/// drain phases, so the drain-carried step is race-free).
enum Command {
    /// A resolved mutator op for a hosted site, with its scenario step.
    Op(SiteId, SiteOp, u64),
    /// An encoded inter-site frame. Stashed outside drain phases so frames
    /// never overtake the op stream, mirroring the sequential driver where
    /// delivery happens only inside `settle`.
    Frame {
        from: SiteId,
        to: SiteId,
        frame: Frame,
    },
    /// Op barrier: acknowledge that every earlier op has been consumed.
    Barrier,
    /// Drain phase: process stashed and incoming frames until the global
    /// in-flight count reaches zero, then acknowledge.
    Drain(u64),
    /// Run a local collection on every hosted site.
    Collect {
        ack: bool,
        step: u64,
    },
    // The `Executor` primitives, for one hosted site or all of them.
    Crash(SiteId),
    Recover(SiteId, u64),
    Join {
        site: SiteId,
        history: Vec<MembershipAnnouncement>,
        step: u64,
    },
    Handoff {
        departing: SiteId,
        epoch: u64,
        step: u64,
    },
    Dissolve(SiteId),
    Evict(SiteId),
    Announce(MembershipAnnouncement, u64),
    /// Hand the shard and its wire metrics back to the coordinator and
    /// exit.
    Shutdown,
}

/// A worker's acknowledgement or final state.
enum Reply<C: Collector> {
    AtBarrier,
    DrainDone { processed: u64 },
    CollectDone,
    Finished(Box<(Fleet<C>, NetMetrics)>),
}

impl<C: Collector> Reply<C> {
    fn kind(&self) -> &'static str {
        match self {
            Reply::AtBarrier => "barrier",
            Reply::DrainDone { .. } => "drain",
            Reply::CollectDone => "collect",
            Reply::Finished(_) => "finished",
        }
    }
}

/// A worker's outbound side: every worker's mailbox plus the shared
/// counters its sends and stamps feed.
struct Mail {
    /// Every worker's mailbox, for inter-site sends (index = worker).
    mailboxes: Vec<Sender<Command>>,
    shared: Arc<SharedState>,
    metrics: NetMetrics,
}

fn worker_of(site: SiteId, workers: usize) -> usize {
    site.index() as usize % workers
}

impl<M> Link<M> for Mail
where
    SimPayload<M>: ggd_net::WireCodec,
{
    /// Encodes `payload` into a wire frame and mails it to the worker
    /// hosting `to`. The in-flight credit is raised *before* the send so
    /// the termination barrier can never observe a frame-shaped gap.
    fn send(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>) {
        let frame = Frame::encode(&payload);
        // The shared frame-layer hook keeps byte accounting identical with
        // the threaded transport's encode path.
        let len = self.metrics.record_frame_sent(&frame) as u64;
        let queued = self.shared.queued_bytes.fetch_add(len, Ordering::SeqCst) + len;
        self.shared
            .peak_queued_bytes
            .fetch_max(queued, Ordering::SeqCst);
        let credited = self.shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.credit_hwm.fetch_max(credited, Ordering::SeqCst);
        self.shared.frames_sent.fetch_add(1, Ordering::SeqCst);
        let dest = worker_of(to, self.mailboxes.len());
        if self.mailboxes[dest]
            .send(Command::Frame { from, to, frame })
            .is_err()
        {
            // Teardown race (coordinator gone): release the credit so any
            // worker still draining can terminate.
            self.shared.queued_bytes.fetch_sub(len, Ordering::SeqCst);
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn stamp_verdict(&mut self, step: u64) {
        let now = self.shared.deliveries.load(Ordering::SeqCst);
        self.shared.last_verdict_at.fetch_max(now, Ordering::SeqCst);
        self.shared
            .last_verdict_step
            .fetch_max(step, Ordering::SeqCst);
    }

    fn stamp_trigger(&mut self, step: u64) {
        let now = self.shared.deliveries.load(Ordering::SeqCst);
        self.shared.triggered_at.fetch_min(now, Ordering::SeqCst);
        self.shared.triggered_step.fetch_min(step, Ordering::SeqCst);
    }
}

/// One worker thread: a shard of the fleet plus its mailbox plumbing.
struct Worker<C: Collector, F> {
    index: usize,
    fleet: Fleet<C>,
    factory: F,
    /// Frames received outside a drain phase, still holding their credit.
    pending: VecDeque<(SiteId, SiteId, Frame)>,
    mail: Mail,
    replies: Sender<Reply<C>>,
}

impl<C, F> Worker<C, F>
where
    C: Collector,
    C::Msg: Send + 'static,
    F: Fn(SiteId) -> C,
{
    fn run(mut self, rx: Receiver<Command>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Command::Op(site, op, step) => self.fleet.apply(site, op, step, &mut self.mail),
                Command::Frame { from, to, frame } => self.pending.push_back((from, to, frame)),
                Command::Barrier => {
                    let _ = self.replies.send(Reply::AtBarrier);
                }
                Command::Drain(step) => {
                    let processed = self.drain(&rx, step);
                    let _ = self.replies.send(Reply::DrainDone { processed });
                }
                Command::Collect { ack, step } => {
                    for site in self.fleet.sites() {
                        self.fleet.collect(site, step, &mut self.mail);
                    }
                    if ack {
                        let _ = self.replies.send(Reply::CollectDone);
                    }
                }
                Command::Crash(site) => self.fleet.crash(site),
                Command::Recover(site, step) => {
                    self.fleet
                        .recover(site, &self.factory, step, &mut self.mail);
                }
                Command::Join {
                    site,
                    history,
                    step,
                } => {
                    let collector = (self.factory)(site);
                    self.fleet
                        .join(site, collector, &history, step, &mut self.mail);
                }
                Command::Handoff {
                    departing,
                    epoch,
                    step,
                } => self.fleet.handoff(departing, epoch, step, &mut self.mail),
                Command::Dissolve(site) => self.fleet.dissolve(site),
                Command::Evict(site) => self.fleet.evict(site),
                Command::Announce(ann, step) => self.fleet.announce(ann, step, &mut self.mail),
                Command::Shutdown => {
                    let metrics = std::mem::take(&mut self.mail.metrics);
                    let _ = self
                        .replies
                        .send(Reply::Finished(Box::new((self.fleet, metrics))));
                    return;
                }
            }
        }
    }

    /// Processes frames — the stash first, then live arrivals — until the
    /// global in-flight credit reaches zero. Zero is stable inside a drain
    /// phase: every worker is draining, and only frame processing (which
    /// holds a credit) can enqueue new frames.
    fn drain(&mut self, rx: &Receiver<Command>, step: u64) -> u64 {
        let mut processed = 0;
        let deadline = Instant::now() + PHASE_DEADLINE;
        loop {
            while let Some((from, to, frame)) = self.pending.pop_front() {
                self.process_frame(from, to, frame, step);
                processed += 1;
            }
            match rx.try_recv() {
                Ok(Command::Frame { from, to, frame }) => {
                    self.process_frame(from, to, frame, step);
                    processed += 1;
                }
                Ok(_) => unreachable!("only frames are in flight during a drain phase"),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    let shared = &self.mail.shared;
                    if shared.in_flight.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "worker {} drain stalled with {} frames credited — termination barrier bug",
                        self.index,
                        shared.in_flight.load(Ordering::SeqCst)
                    );
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(Command::Frame { from, to, frame }) => {
                            self.process_frame(from, to, frame, step);
                            processed += 1;
                        }
                        Ok(_) => unreachable!("only frames are in flight during a drain phase"),
                        Err(_) => {}
                    }
                }
            }
        }
        processed
    }

    /// Consumes one frame: decode at the mailbox, deliver to the hosted
    /// site (or drop as loss if the site is down — the same semantics as
    /// both transports), then release the credit — strictly after any
    /// descendant sends were enqueued.
    fn process_frame(&mut self, from: SiteId, to: SiteId, frame: Frame, step: u64) {
        let len = frame.wire_len() as u64;
        self.mail
            .shared
            .queued_bytes
            .fetch_sub(len, Ordering::SeqCst);
        if self.fleet.is_up(to) {
            let payload: SimPayload<C::Msg> = frame
                .decode()
                .expect("wire frame decodes back to the payload that was sent");
            self.mail.metrics.record_frame_delivered(&frame);
            self.mail.shared.deliveries.fetch_add(1, Ordering::SeqCst);
            self.fleet.deliver(from, to, payload, step, &mut self.mail);
        } else {
            self.mail.metrics.record_frame_dropped(&frame);
        }
        self.mail.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The coordinator side of a parallel run, while workers are live: the
/// [`Executor`] that turns the plan's decisions into mailbox commands.
struct Coordinator<C: Collector> {
    config: ClusterConfig,
    mailboxes: Vec<Sender<Command>>,
    replies: Receiver<Reply<C>>,
    shared: Arc<SharedState>,
}

impl<C: Collector> Coordinator<C> {
    fn mail(&self, site: SiteId, command: Command) {
        let _ = self.mailboxes[worker_of(site, self.mailboxes.len())].send(command);
    }

    fn broadcast(&self, make: impl Fn() -> Command) {
        for mailbox in &self.mailboxes {
            let _ = mailbox.send(make());
        }
    }

    /// Waits for one acknowledgement of `expected` kind from every worker,
    /// returning the summed drain counts. Panics (rather than hangs) when a
    /// worker goes silent — the stress suite asserts the termination
    /// barrier cannot deadlock.
    fn await_acks(&self, expected: &'static str) -> u64 {
        let mut processed = 0;
        for _ in 0..self.mailboxes.len() {
            match self.replies.recv_timeout(PHASE_DEADLINE) {
                Ok(Reply::DrainDone { processed: p }) if expected == "drain" => processed += p,
                Ok(Reply::AtBarrier) if expected == "barrier" => {}
                Ok(Reply::CollectDone) if expected == "collect" => {}
                Ok(other) => panic!(
                    "parallel protocol violation: got {} while awaiting {expected} acks",
                    other.kind()
                ),
                Err(_) => panic!("parallel {expected} phase stalled — a worker went silent"),
            }
        }
        processed
    }
}

impl<C: Collector> Executor for Coordinator<C> {
    /// The shared delivery clock.
    fn now(&self) -> u64 {
        self.shared.deliveries.load(Ordering::SeqCst)
    }

    fn apply(&mut self, site: SiteId, op: SiteOp, step: u64) {
        self.mail(site, Command::Op(site, op, step));
    }

    fn collect_all(&mut self, step: u64) {
        self.broadcast(|| Command::Collect { ack: false, step });
    }

    /// The parallel settle: an op barrier, then rounds of drain-then-
    /// collect until a round neither processed nor emitted a frame. The
    /// sequential settle's global round counter survives only as the
    /// safety valve; progress itself is judged by the termination barrier.
    /// Crash windows are sampled before each drain and each collect (a
    /// window opening mid-drain takes effect at the next boundary).
    fn settle(&mut self, plan: &mut Plan) {
        let step = plan.step();
        let mut rounds: u64 = 0;
        let mut delivered: u64 = 0;
        self.broadcast(|| Command::Barrier);
        self.await_acks("barrier");
        for _ in 0..self.config.settle_rounds() {
            rounds += 1;
            plan.lifecycle(self);
            self.broadcast(|| Command::Drain(step));
            let processed = self.await_acks("drain");
            delivered += processed;
            plan.lifecycle(self);
            let before = self.shared.frames_sent.load(Ordering::SeqCst);
            self.broadcast(|| Command::Collect { ack: true, step });
            self.await_acks("collect");
            let emitted = self.shared.frames_sent.load(Ordering::SeqCst) - before;
            if processed == 0 && emitted == 0 && self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
        }
        // Round/delivery counts are schedule-shaped (drain waves vs the
        // sequential per-delivery loop) — a non-deterministic event. The
        // credit high-water mark is the run-so-far peak of the termination
        // barrier's in-flight pool.
        plan.obs.event(
            "settle",
            false,
            &[
                ("rounds", rounds),
                ("delivered", delivered),
                ("credit_hwm", self.shared.credit_hwm.load(Ordering::SeqCst)),
            ],
        );
    }

    fn crash(&mut self, site: SiteId) {
        self.mail(site, Command::Crash(site));
    }

    fn recover(&mut self, site: SiteId, step: u64) {
        self.mail(site, Command::Recover(site, step));
    }

    fn join(&mut self, site: SiteId, history: &[MembershipAnnouncement], step: u64) {
        let history = history.to_vec();
        self.mail(
            site,
            Command::Join {
                site,
                history,
                step,
            },
        );
    }

    fn handoff(&mut self, departing: SiteId, epoch: u64, step: u64) {
        self.broadcast(|| Command::Handoff {
            departing,
            epoch,
            step,
        });
    }

    fn dissolve(&mut self, site: SiteId) {
        self.mail(site, Command::Dissolve(site));
    }

    fn evict(&mut self, site: SiteId) {
        self.mail(site, Command::Evict(site));
    }

    /// FIFO mailbox order guarantees a preceding join, dissolve or evict
    /// on the owning worker lands before the announcement does.
    fn announce(&mut self, ann: MembershipAnnouncement, step: u64) {
        self.broadcast(|| Command::Announce(ann, step));
    }
}

/// The end state of a parallel run: the worker shards reassembled into one
/// fleet, ready for oracle inspection — the parallel counterpart of a
/// finished [`Cluster`](crate::Cluster).
pub struct ParallelCluster<C: Collector> {
    fleet: Fleet<C>,
    /// Sites gone through a planned leave over the run.
    departed: BTreeSet<SiteId>,
    /// Cluster-scope observability handle.
    obs: SiteObs,
    /// The run's wire metrics, for the observability report.
    net: NetMetrics,
}

impl<C> ParallelCluster<C>
where
    C: Collector + Send + 'static,
    C::Msg: Send + 'static,
{
    /// Runs `scenario` on [`ClusterConfig::workers`] worker threads and
    /// returns the report together with the reassembled cluster state.
    ///
    /// Mirrors [`Cluster::run_seeded`](crate::Cluster::run_seeded) in
    /// inputs and skip semantics, but the run is *not* deterministic:
    /// frame interleaving across workers is scheduler-dependent, exactly
    /// like the threaded transport. [`ClusterConfig::safety_oracle`] is
    /// ignored (no consistent global heap view exists mid-run); safety is
    /// checked by the sequential-equivalence suite instead. Of
    /// [`ClusterConfig::faults`], only the crash schedule applies.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` is zero, or when crash faults are
    /// scheduled without durability.
    pub fn run_seeded(
        scenario: &Scenario,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + Clone + Send + 'static,
    ) -> (RunReport, Self) {
        assert!(
            config.workers >= 1,
            "the parallel driver requires ClusterConfig::workers >= 1"
        );
        assert!(
            config.faults.crashes().is_empty() || config.durability.is_on(),
            "crash faults require durability (ClusterConfig::durability)"
        );
        let site_count = scenario.site_count();
        let workers = (config.workers as usize).min(site_count.max(1) as usize);
        let shared = Arc::new(SharedState {
            triggered_at: AtomicU64::new(u64::MAX),
            triggered_step: AtomicU64::new(u64::MAX),
            ..SharedState::default()
        });
        let collector_name = factory(SiteId::new(0)).name().to_owned();

        // Build the shards and the mailbox mesh.
        let (reply_tx, replies) = unbounded::<Reply<C>>();
        let (mailboxes, receivers): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| unbounded::<Command>()).unzip();
        let mut handles = Vec::with_capacity(workers);
        for (index, rx) in receivers.into_iter().enumerate() {
            let mut fleet = Fleet::new(&config);
            for site in (0..site_count).map(SiteId::new) {
                if worker_of(site, workers) == index {
                    fleet.open(site, factory(site));
                }
            }
            let worker = Worker {
                index,
                fleet,
                factory: factory.clone(),
                pending: VecDeque::new(),
                mail: Mail {
                    mailboxes: mailboxes.clone(),
                    shared: Arc::clone(&shared),
                    metrics: NetMetrics::new(),
                },
                replies: reply_tx.clone(),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ggd-worker-{index}"))
                    .spawn(move || worker.run(rx))
                    .expect("spawn worker thread"),
            );
        }
        drop(reply_tx);

        // Drive the scenario: ops stream to the shards, settles synchronize.
        let mut plan = Plan::new(site_count, &config);
        let mut coordinator = Coordinator::<C> {
            config,
            mailboxes,
            replies,
            shared: Arc::clone(&shared),
        };
        plan.run(&mut coordinator, scenario);

        // Shut down and reassemble.
        coordinator.broadcast(|| Command::Shutdown);
        let mut fleet = Fleet::new(&coordinator.config);
        let mut net = NetMetrics::new();
        for _ in 0..workers {
            match coordinator.replies.recv_timeout(PHASE_DEADLINE) {
                Ok(Reply::Finished(state)) => {
                    let (shard, metrics) = *state;
                    fleet.merge(shard);
                    net.absorb(&metrics);
                }
                Ok(other) => panic!(
                    "parallel protocol violation: got {} while awaiting shutdown",
                    other.kind()
                ),
                Err(_) => panic!("parallel shutdown stalled — a worker went silent"),
            }
        }
        for handle in handles {
            handle.join().expect("worker thread exited cleanly");
        }
        net.note_peak_queued(shared.peak_queued_bytes.load(Ordering::SeqCst));

        assert_eq!(
            fleet.sites().len(),
            plan.members().len(),
            "every member site must be up and returned at end of run"
        );
        let verdicts = fleet.verdicts;
        let triggered = shared.triggered_at.load(Ordering::SeqCst);
        let triggered_step = shared.triggered_step.load(Ordering::SeqCst);
        let report = RunReport {
            collector: collector_name,
            finished_at: shared.deliveries.load(Ordering::SeqCst),
            last_verdict_at: (verdicts > 0).then(|| shared.last_verdict_at.load(Ordering::SeqCst)),
            triggered_at: (triggered != u64::MAX).then_some(triggered),
            triggered_step: (triggered_step != u64::MAX).then_some(triggered_step),
            last_verdict_step: (verdicts > 0)
                .then(|| shared.last_verdict_step.load(Ordering::SeqCst)),
            net: net.clone(),
            ..fleet.report()
        };
        let cluster = ParallelCluster {
            fleet,
            departed: plan.departed().clone(),
            obs: plan.obs,
            net,
        };
        (report, cluster)
    }
}

impl<C: Collector> ParallelCluster<C> {
    /// Read access to a site's heap.
    pub fn heap(&self, site: SiteId) -> &SiteHeap {
        self.fleet.heap(site)
    }

    /// Iterates over every site's heap — member sites plus evicted heaps
    /// (the latter conservatively still exist for the oracle).
    pub fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        self.fleet.heaps()
    }

    /// The sites whose collector state or heap still references `departed`.
    /// Empty after a planned leave, on any worker count.
    pub fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        self.fleet.sites_mentioning(departed)
    }

    /// Sites gone through a planned leave over the run.
    pub fn departed_sites(&self) -> &BTreeSet<SiteId> {
        &self.departed
    }

    /// Sites evicted over the run.
    pub fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.fleet.evicted_sites()
    }

    /// The addresses of every object reclaimed by local collections.
    pub fn reclaimed_addrs(&self) -> &BTreeSet<GlobalAddr> {
        &self.fleet.reclaimed_addrs
    }

    /// The residual-garbage set at end of run, per the oracle.
    pub fn garbage_addrs(&self) -> BTreeSet<GlobalAddr> {
        Oracle::garbage(self.heaps())
    }

    /// Number of site recoveries performed over the run.
    pub fn recoveries(&self) -> u64 {
        self.fleet.recoveries
    }

    /// True when the site's runtime came back up (always, for a completed
    /// run — the driver recovers every downed site before reporting).
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.fleet.is_up(site)
    }

    /// Aggregated durable-store counters across every site. All zeros with
    /// durability off.
    pub fn store_stats(&self) -> StoreStats {
        self.fleet.store_stats()
    }

    /// Assembles the observability report — the parallel counterpart of
    /// [`Cluster::obs_report`](crate::Cluster::obs_report), with identical
    /// scope structure and auxiliary gauges. Empty/disabled when
    /// [`ClusterConfig::obs`] is off.
    pub fn obs_report(&self) -> ObsReport {
        self.fleet.obs_report(&self.obs, &self.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CausalCollector, RefListingCollector, TracingCollector};
    use crate::Cluster;
    use ggd_mutator::workloads;

    fn parallel_config(workers: u32) -> ClusterConfig {
        ClusterConfig {
            workers,
            safety_oracle: false,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn paper_example_on_workers_matches_the_sequential_outcome() {
        let scenario = workloads::paper_example();
        let (seq_report, seq) =
            Cluster::run_seeded(&scenario, ClusterConfig::default(), CausalCollector::new);
        for workers in [1, 2, 4] {
            let (report, cluster) = ParallelCluster::run_seeded(
                &scenario,
                parallel_config(workers),
                CausalCollector::new,
            );
            assert_eq!(report.reclaimed, 3, "workers={workers}");
            assert_eq!(report.residual_garbage, 0, "workers={workers}");
            assert_eq!(report.allocated, seq_report.allocated);
            assert_eq!(report.mutator_messages(), seq_report.mutator_messages());
            assert_eq!(cluster.reclaimed_addrs(), seq.reclaimed_addrs());
            assert_eq!(cluster.garbage_addrs(), seq.garbage_addrs());
            assert!(report.net.bytes_sent_total() > 0, "frames carry real bytes");
        }
    }

    #[test]
    fn worker_count_is_clamped_to_the_site_count() {
        let scenario = workloads::ring(3);
        let (report, _) =
            ParallelCluster::run_seeded(&scenario, parallel_config(64), CausalCollector::new);
        assert_eq!(report.reclaimed, 3);
        assert_eq!(report.residual_garbage, 0);
    }

    #[test]
    fn baseline_collectors_run_on_the_parallel_driver() {
        let scenario = workloads::ring(4);
        let (tracing, _) = ParallelCluster::run_seeded(
            &scenario,
            parallel_config(2),
            TracingCollector::factory(scenario.site_count()),
        );
        assert_eq!(tracing.residual_garbage, 0);
        let (reflisting, _) =
            ParallelCluster::run_seeded(&scenario, parallel_config(2), RefListingCollector::new);
        // Reference listing cannot collect the ring's cycle; it must still
        // terminate and stay safe.
        assert_eq!(reflisting.safety_violations, 0);
    }

    #[test]
    #[should_panic(expected = "workers >= 1")]
    fn zero_workers_is_rejected() {
        let scenario = workloads::paper_example();
        let _ =
            ParallelCluster::run_seeded(&scenario, ClusterConfig::default(), CausalCollector::new);
    }

    #[test]
    fn planned_leave_on_workers_leaves_no_trace() {
        let departed = SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(SiteId::new(0), true);
        let c = s.alloc(departed, true);
        s.send_ref(departed, a, c);
        s.settle();
        s.planned_leave(departed);
        s.settle();

        for workers in [1, 2, 3] {
            let (report, cluster) =
                ParallelCluster::run_seeded(&s, parallel_config(workers), CausalCollector::new);
            assert_eq!(report.safety_violations, 0, "workers={workers}");
            assert_eq!(report.residual_garbage, 0, "workers={workers}");
            assert_eq!(report.sites, 2, "workers={workers}");
            assert!(cluster.departed_sites().contains(&departed));
            assert_eq!(
                cluster.sites_mentioning(departed),
                Vec::new(),
                "workers={workers}: a survivor still references the departed site"
            );
        }
    }

    #[test]
    fn join_and_evict_run_on_workers() {
        let joiner = SiteId::new(3);
        let victim = SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(SiteId::new(0), true);
        let c = s.alloc(victim, true);
        s.send_ref(victim, a, c);
        s.settle();
        s.join(joiner);
        let d = s.alloc(joiner, true);
        s.send_ref(joiner, a, d);
        s.settle();
        s.evict(victim);
        s.settle();

        for workers in [1, 2] {
            let (report, cluster) =
                ParallelCluster::run_seeded(&s, parallel_config(workers), CausalCollector::new);
            assert_eq!(report.safety_violations, 0, "workers={workers}");
            // 3 founding members - 1 evicted + 1 joined.
            assert_eq!(report.sites, 3, "workers={workers}");
            assert!(cluster.site_is_up(joiner));
            assert!(!cluster.site_is_up(victim));
            assert_eq!(cluster.evicted_sites().collect::<Vec<_>>(), vec![victim]);
            // No handoff on evict: the survivor still references the
            // evicted heap, which conservatively still exists.
            assert!(!cluster.sites_mentioning(victim).is_empty());
        }
    }

    #[test]
    fn evicting_a_downed_site_matches_the_sequential_driver() {
        // Site 2 crashes on the first delivery and is evicted while still
        // down: no ceremony, so no recovery on either driver — the oracle
        // keeps its crash-time heap.
        let victim = SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(SiteId::new(0), true);
        let c = s.alloc(victim, true);
        s.send_ref(victim, a, c);
        s.settle();
        s.evict(victim);
        s.settle();
        let config = ClusterConfig {
            faults: ggd_net::FaultPlan::new().with_crash(victim, 1, 1_000_000),
            durability: ggd_store::DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        let (seq_report, seq) = Cluster::run_seeded(&s, config.clone(), CausalCollector::new);
        assert_eq!(seq.recoveries(), 0);
        assert_eq!(seq.evicted_sites().collect::<Vec<_>>(), vec![victim]);
        for workers in [1, 2] {
            let (report, cluster) = ParallelCluster::run_seeded(
                &s,
                ClusterConfig {
                    workers,
                    safety_oracle: false,
                    ..config.clone()
                },
                CausalCollector::new,
            );
            assert_eq!(cluster.recoveries(), 0, "workers={workers}");
            assert_eq!(
                cluster.evicted_sites().collect::<Vec<_>>(),
                vec![victim],
                "workers={workers}"
            );
            assert_eq!(cluster.garbage_addrs(), seq.garbage_addrs());
            assert_eq!(
                (report.sites, report.allocated, report.reclaimed),
                (seq_report.sites, seq_report.allocated, seq_report.reclaimed),
                "workers={workers}"
            );
            assert_eq!(report.residual_garbage, seq_report.residual_garbage);
        }
    }

    #[test]
    fn queued_byte_accounting_returns_to_zero() {
        let scenario = workloads::random_churn(4, 60, 5);
        let (report, _) =
            ParallelCluster::run_seeded(&scenario, parallel_config(2), CausalCollector::new);
        assert_eq!(report.net.queued_bytes(), 0, "every frame was consumed");
        assert!(report.net.peak_queued_bytes() > 0, "frames were queued");
        assert!(report.net.control_bytes_sent() > 0);
    }
}
