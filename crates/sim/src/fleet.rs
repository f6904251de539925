//! The site-side state both drivers share: up runtimes, downed sites and
//! evicted heaps.
//!
//! A [`Fleet`] executes the site half of every [`Executor`](crate::plan::Executor)
//! primitive — building, crashing, recovering, joining, dissolving and
//! evicting sites, applying resolved ops and deliveries — and answers the
//! post-run views. The sequential [`Cluster`](crate::Cluster) owns one
//! whole fleet; each parallel worker owns the shard of the sites it hosts,
//! and a finished [`ParallelCluster`](crate::ParallelCluster) is the shards
//! merged back together. What differs per driver is only how outgoing
//! messages travel, which a [`Link`] abstracts.

use std::collections::{BTreeMap, BTreeSet};

use ggd_heap::SiteHeap;
use ggd_net::NetMetrics;
use ggd_obs::{ObsConfig, ObsReport, SiteObs};
use ggd_store::{DurabilityConfig, MembershipAnnouncement, SiteStore, StoreStats};
use ggd_types::{GlobalAddr, ObjectId, SiteId};

use crate::cluster::ClusterConfig;
use crate::collector::{Collector, SimPayload};
use crate::oracle::Oracle;
use crate::plan::SiteOp;
use crate::report::RunReport;
use crate::runtime::{SiteRuntime, SiteTick, SyncMode};

/// How a driver carries a site's outgoing messages and stamps the run's
/// trigger and verdict clocks.
pub(crate) trait Link<M> {
    /// Sends one payload from `from` to `to`.
    fn send(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>);
    /// A site applied GGD verdicts at `step`.
    fn stamp_verdict(&mut self, step: u64);
    /// A site emitted control messages at `step`.
    fn stamp_trigger(&mut self, step: u64);
}

/// A site that is currently crashed: its durable medium, and its heap as of
/// the crash — kept for the *oracle only*. The durable store provably
/// restores exactly this heap on recovery, so the site's objects still
/// exist in the ground-truth object graph while it is down; excluding them
/// would let an unsafe sweep of an object reachable only through the downed
/// site go undetected.
#[derive(Debug)]
struct DownedSite<M> {
    store: SiteStore<M>,
    heap: SiteHeap,
    /// Membership protocol steps the site missed while down: applied (and
    /// thereby WAL-logged) in order right after recovery, so a recovered
    /// site never runs with a stale view of the fleet — and a survivor that
    /// was down across a planned leave still performs its reference
    /// handoff before anyone can observe it.
    pending_catchup: Vec<Catchup>,
    /// The site's observability handle, carried across the crash: the
    /// measurement layer sits outside the failure model, so measurements
    /// survive and are re-attached after recovery (replay does not
    /// double-count — the recovered runtime replays with a disabled handle).
    obs: SiteObs,
}

/// One membership protocol step deferred for a crashed site.
#[derive(Debug, Clone, Copy)]
enum Catchup {
    /// Sever this site's references towards `departing`.
    Handoff { departing: SiteId, epoch: u64 },
    /// Apply a membership announcement broadcast while the site was down.
    Announce(MembershipAnnouncement),
}

/// Site runtimes in every state, plus the run-wide site counters.
pub(crate) struct Fleet<C: Collector> {
    up: BTreeMap<SiteId, SiteRuntime<C>>,
    downed: BTreeMap<SiteId, DownedSite<C::Msg>>,
    /// Heaps of evicted sites: the oracle conservatively keeps treating
    /// their objects as existing (exactly like a crashed site's), so an
    /// unsafe sweep of an object reachable only through an evicted site is
    /// still caught.
    evicted: BTreeMap<SiteId, SiteHeap>,
    sync_mode: SyncMode,
    durability: DurabilityConfig,
    obs: ObsConfig,
    reclaimed: u64,
    pub(crate) reclaimed_addrs: BTreeSet<GlobalAddr>,
    pub(crate) verdicts: u64,
    pub(crate) recoveries: u64,
}

impl<C: Collector> Fleet<C> {
    /// An empty fleet whose sites run under `config`.
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        Fleet {
            up: BTreeMap::new(),
            downed: BTreeMap::new(),
            evicted: BTreeMap::new(),
            sync_mode: config.sync_mode,
            durability: config.durability.clone(),
            obs: config.obs,
            reclaimed: 0,
            reclaimed_addrs: BTreeSet::new(),
            verdicts: 0,
            recoveries: 0,
        }
    }

    /// Brings a fresh site up — durably, when the fleet runs with
    /// durability: it WAL-logs from its very first input.
    pub(crate) fn open(&mut self, site: SiteId, collector: C) {
        let mut runtime = SiteRuntime::with_mode(site, collector, self.sync_mode)
            .with_obs(SiteObs::new(Some(site), &self.obs));
        if let Some(store) = SiteStore::open(site, &self.durability) {
            runtime = runtime.with_store(store);
        }
        self.up.insert(site, runtime);
    }

    /// Merges another shard's sites and counters into this fleet.
    pub(crate) fn merge(&mut self, shard: Fleet<C>) {
        self.up.extend(shard.up);
        self.downed.extend(shard.downed);
        self.evicted.extend(shard.evicted);
        self.reclaimed += shard.reclaimed;
        self.reclaimed_addrs.extend(shard.reclaimed_addrs);
        self.verdicts += shard.verdicts;
        self.recoveries += shard.recoveries;
    }

    pub(crate) fn is_up(&self, site: SiteId) -> bool {
        self.up.contains_key(&site)
    }

    /// The up sites, in id order.
    pub(crate) fn sites(&self) -> Vec<SiteId> {
        self.up.keys().copied().collect()
    }

    pub(crate) fn heap(&self, site: SiteId) -> &SiteHeap {
        self.up[&site].heap()
    }

    pub(crate) fn collector(&self, site: SiteId) -> &C {
        self.up[&site].collector()
    }

    /// The up runtime of `site`, with its probes stamping `step`.
    fn runtime(&mut self, site: SiteId, step: u64) -> &mut SiteRuntime<C> {
        let runtime = self.up.get_mut(&site).expect("site is up");
        runtime.obs_mut().set_step(step);
        runtime
    }

    /// Books a runtime step's results — verdict counters and
    /// control-message sends — then installs a checkpoint if the site's WAL
    /// cadence asks for one.
    fn absorb(
        &mut self,
        site: SiteId,
        tick: SiteTick<C::Msg>,
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) {
        if tick.verdicts_applied > 0 {
            self.verdicts += tick.verdicts_applied;
            link.stamp_verdict(step);
        }
        if !tick.outgoing.is_empty() {
            link.stamp_trigger(step);
        }
        for (dest, msg) in tick.outgoing {
            link.send(site, dest, SimPayload::Control(msg));
        }
        if let Some(runtime) = self.up.get_mut(&site) {
            runtime.maybe_checkpoint();
        }
    }

    /// Applies a resolved op on an up site.
    pub(crate) fn apply(
        &mut self,
        site: SiteId,
        op: SiteOp,
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) {
        let runtime = self.runtime(site, step);
        let tick = match op {
            SiteOp::Alloc { local_root, expect } => {
                let addr = runtime.alloc(local_root);
                assert_eq!(addr, expect, "predicted allocation address diverged");
                runtime.maybe_checkpoint();
                return;
            }
            SiteOp::LinkLocal { from, to } => runtime.link_local(from, to),
            SiteOp::Unlink { from, to } => runtime.unlink(from, to),
            SiteOp::ClearRefs { addr } => runtime.clear_refs(addr),
            SiteOp::DropLocalRoot { addr } => runtime.drop_local_root(addr),
            SiteOp::SendRef { target, recipient } => {
                let tick = runtime.export_reference(target, recipient);
                self.absorb(site, tick, step, link);
                if recipient.site() != site {
                    link.send(
                        site,
                        recipient.site(),
                        SimPayload::Reference { recipient, target },
                    );
                    return;
                }
                // A same-site transfer is a local mutation, not a network
                // message (see `SiteRuntime::export_reference`): the
                // reference is stored immediately and must not be
                // droppable, duplicable or stallable by the fault plan.
                self.runtime(site, step)
                    .receive_reference(site, recipient, target)
            }
            SiteOp::Collect => {
                self.collect(site, step, link);
                return;
            }
        };
        self.absorb(site, tick, step, link);
    }

    /// Hands a delivered payload to its destination site; false (nothing
    /// happens) when the site is not up — the message dies with its inbox.
    pub(crate) fn deliver(
        &mut self,
        from: SiteId,
        to: SiteId,
        payload: SimPayload<C::Msg>,
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) -> bool {
        if !self.is_up(to) {
            return false;
        }
        let runtime = self.runtime(to, step);
        let tick = match payload {
            SimPayload::Reference { recipient, target } => {
                runtime.receive_reference(from, recipient, target)
            }
            SimPayload::Control(msg) => runtime.on_control(from, msg),
        };
        self.absorb(to, tick, step, link);
        true
    }

    /// Runs a local collection on an up site (nothing otherwise) and
    /// returns the freed objects.
    pub(crate) fn collect(
        &mut self,
        site: SiteId,
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) -> BTreeSet<ObjectId> {
        let Some(runtime) = self.up.get_mut(&site) else {
            return BTreeSet::new();
        };
        runtime.obs_mut().set_step(step);
        let outcome = runtime.collect();
        if !outcome.is_noop() {
            let tick = runtime.sync();
            self.absorb(site, tick, step, link);
        }
        self.reclaimed += outcome.freed.len() as u64;
        self.reclaimed_addrs.extend(
            outcome
                .freed
                .iter()
                .map(|&id| GlobalAddr::from_parts(site, id)),
        );
        outcome.freed
    }

    /// Stamps the first step at which each currently-garbage object was
    /// observed unreachable (first sighting wins in the ledger).
    pub(crate) fn mark_unreachable(&mut self, step: u64) {
        for addr in Oracle::garbage(self.heaps()) {
            if let Some(runtime) = self.up.get_mut(&addr.site()) {
                let obs = runtime.obs_mut();
                obs.set_step(step);
                obs.mark_unreachable(addr);
            }
        }
    }

    /// Tears an up site's volatile state down, keeping its durable store
    /// and (for the oracle) its crash-time heap.
    pub(crate) fn crash(&mut self, site: SiteId) {
        let Some(mut runtime) = self.up.remove(&site) else {
            return;
        };
        let store = runtime
            .take_store()
            .expect("crash faults require durability (checked at construction)");
        let downed = DownedSite {
            store,
            heap: runtime.heap().clone(),
            pending_catchup: Vec::new(),
            obs: runtime.take_obs(),
        };
        self.downed.insert(site, downed);
    }

    /// Rebuilds a downed site from its durable store, then catches it up,
    /// in order, on the membership steps it missed (WAL-logged, so a second
    /// crash replays the same steps).
    pub(crate) fn recover(
        &mut self,
        site: SiteId,
        factory: impl Fn(SiteId) -> C,
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) {
        let Some(downed) = self.downed.remove(&site) else {
            return;
        };
        let mut runtime = SiteRuntime::recover(downed.store, factory(site), self.sync_mode);
        let replayed = runtime
            .store()
            .map_or(0, |store| store.stats().records_replayed);
        // Recovery replays with a disabled handle (no double-counting);
        // re-attach the crash-time measurements now.
        runtime.set_obs(downed.obs);
        let obs = runtime.obs_mut();
        obs.set_step(step);
        obs.add_aux("recoveries", 1);
        obs.event("wal-replay", false, &[("records_replayed", replayed)]);
        self.up.insert(site, runtime);
        self.recoveries += 1;
        for action in downed.pending_catchup {
            let runtime = self.runtime(site, step);
            let tick = match action {
                Catchup::Handoff { departing, epoch } => runtime.perform_handoff(departing, epoch),
                Catchup::Announce(ann) => runtime.apply_membership(ann),
            };
            self.absorb(site, tick, step, link);
        }
    }

    /// Brings a fresh site up mid-run, caught up on `history`.
    pub(crate) fn join(
        &mut self,
        site: SiteId,
        collector: C,
        history: &[MembershipAnnouncement],
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) {
        self.open(site, collector);
        for &ann in history {
            let tick = self.runtime(site, step).apply_membership(ann);
            self.absorb(site, tick, step, link);
        }
    }

    /// Every hosted site but `departing` severs its references towards it;
    /// downed sites do so right after recovery.
    pub(crate) fn handoff(
        &mut self,
        departing: SiteId,
        epoch: u64,
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) {
        for site in self.sites() {
            if site != departing {
                let tick = self.runtime(site, step).perform_handoff(departing, epoch);
                self.absorb(site, tick, step, link);
            }
        }
        for downed in self.downed.values_mut() {
            downed
                .pending_catchup
                .push(Catchup::Handoff { departing, epoch });
        }
    }

    /// Applies `ann` on every up site; downed sites apply it right after
    /// recovery.
    pub(crate) fn announce(
        &mut self,
        ann: MembershipAnnouncement,
        step: u64,
        link: &mut impl Link<C::Msg>,
    ) {
        for site in self.sites() {
            let tick = self.runtime(site, step).apply_membership(ann);
            self.absorb(site, tick, step, link);
        }
        for downed in self.downed.values_mut() {
            downed.pending_catchup.push(Catchup::Announce(ann));
        }
    }

    /// Drops a site that completed its planned leave.
    pub(crate) fn dissolve(&mut self, site: SiteId) {
        self.up.remove(&site);
        self.downed.remove(&site);
    }

    /// Removes a site without ceremony, keeping its last heap — the
    /// crash-time heap when it is down — for the oracle.
    pub(crate) fn evict(&mut self, site: SiteId) {
        if let Some(runtime) = self.up.remove(&site) {
            self.evicted.insert(site, runtime.heap().clone());
        } else if let Some(downed) = self.downed.remove(&site) {
            self.evicted.insert(site, downed.heap);
        }
    }

    /// Every site's heap — the inputs the [`Oracle`] judges a run by. Downed
    /// sites contribute their crash-time heap and evicted sites their last
    /// one: those objects still exist in the ground-truth object graph.
    pub(crate) fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        self.up
            .values()
            .map(SiteRuntime::heap)
            .chain(self.downed.values().map(|d| &d.heap))
            .chain(self.evicted.values())
    }

    pub(crate) fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.evicted.keys().copied()
    }

    /// The up sites whose collector state or heap still references
    /// `departed`.
    pub(crate) fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        self.up
            .iter()
            .filter(|(_, rt)| {
                rt.collector().mentions_site(departed)
                    || rt
                        .heap()
                        .remote_targets()
                        .iter()
                        .any(|addr| addr.site() == departed)
            })
            .map(|(&s, _)| s)
            .collect()
    }

    /// Durable-store counters summed over every site, up or down.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let stores = self.up.values().filter_map(SiteRuntime::store);
        let downed = self.downed.values().map(|d| &d.store);
        let mut total = StoreStats::default();
        for stats in stores.chain(downed).map(SiteStore::stats) {
            total.records_appended += stats.records_appended;
            total.wal_bytes_appended += stats.wal_bytes_appended;
            total.checkpoints_installed += stats.checkpoints_installed;
            total.records_replayed += stats.records_replayed;
        }
        total
    }

    /// The fleet's share of a run report: site, allocation, reclaim,
    /// residual and verdict counts.
    pub(crate) fn report(&self) -> RunReport {
        RunReport {
            sites: self.up.len() as u32,
            allocated: self.up.values().map(|rt| rt.heap().stats().allocated).sum(),
            reclaimed: self.reclaimed,
            residual_garbage: Oracle::garbage(self.heaps()).len() as u64,
            verdicts: self.verdicts,
            ..RunReport::default()
        }
    }

    /// Assembles the observability report: the cluster scope (network and
    /// durable-store aggregates as auxiliary gauges, one `msg-class` event
    /// per message bucket), then every site scope (collector and heap
    /// counters as auxiliary gauges on top of whatever the probes
    /// recorded).
    pub(crate) fn obs_report(&self, cluster_obs: &SiteObs, net: &NetMetrics) -> ObsReport {
        let mut cluster_obs = cluster_obs.clone();
        if cluster_obs.is_enabled() {
            cluster_obs.set_gauge_aux("net_control_messages_sent", net.control_messages_sent());
            cluster_obs.set_gauge_aux("net_mutator_messages_sent", net.mutator_messages_sent());
            cluster_obs.set_gauge_aux("net_control_bytes_sent", net.control_bytes_sent());
            cluster_obs.set_gauge_aux("net_mutator_bytes_sent", net.mutator_bytes_sent());
            // The per-collector message-class breakdown. Volumes are
            // transport-shaped (the parallel driver only frames cross-worker
            // traffic), hence aux.
            for row in net.bucket_rows() {
                cluster_obs.event_labeled(
                    "msg-class",
                    row.key.to_string(),
                    false,
                    &[
                        ("sent", row.sent),
                        ("delivered", row.delivered),
                        ("dropped", row.dropped),
                        ("bytes", row.bytes_sent),
                    ],
                );
            }
            let stats = self.store_stats();
            cluster_obs.set_gauge_aux("store_records_appended", stats.records_appended);
            cluster_obs.set_gauge_aux("store_wal_bytes_appended", stats.wal_bytes_appended);
            cluster_obs.set_gauge_aux("store_checkpoints_installed", stats.checkpoints_installed);
            cluster_obs.set_gauge_aux("store_records_replayed", stats.records_replayed);
            cluster_obs.set_gauge_aux("recoveries", self.recoveries);
        }
        let site_obs: Vec<SiteObs> = self
            .up
            .values()
            .map(|runtime| {
                let mut obs = runtime.obs().clone();
                if obs.is_enabled() {
                    for (name, value) in runtime.collector().obs_counters() {
                        obs.set_gauge_aux(name, value);
                    }
                    let heap = runtime.heap().stats();
                    obs.set_gauge_aux("heap_allocated", heap.allocated);
                    obs.set_gauge_aux("heap_collected", heap.collected);
                    obs.set_gauge_aux("heap_collections", heap.collections);
                }
                obs
            })
            .chain(self.downed.values().map(|d| d.obs.clone()))
            .collect();
        ObsReport::assemble(&cluster_obs, site_obs.iter())
    }
}
