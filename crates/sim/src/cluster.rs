//! The cluster: site runtimes (heap + collector) over any transport.
//!
//! [`Cluster`] is generic over [`ggd_net::Transport`], so the one drive loop
//! here — the settle loop, the mid-run safety oracle and the transport-side
//! bookkeeping — runs unchanged over the deterministic [`SimNetwork`]
//! (experiments, bit-for-bit reproducible) and the [`ThreadedNetwork`] (real
//! OS threads, scheduler-dependent interleaving). Name resolution, skip
//! analysis, the crash schedule and membership sequencing come from the
//! [`Plan`](crate::plan::Plan) shared with the parallel driver; the sites
//! themselves live in a [`Fleet`](crate::fleet::Fleet).

use std::collections::BTreeSet;
use std::fmt;

use ggd_heap::SiteHeap;
use ggd_mutator::{MembershipEvent, MutatorOp, ObjName, Scenario};
use ggd_net::{FaultPlan, SimNetwork, SimNetworkConfig, ThreadedNetwork, Transport};
use ggd_obs::{ObsConfig, ObsReport};
use ggd_store::{DurabilityConfig, MembershipAnnouncement, StoreStats};
use ggd_types::{GlobalAddr, SiteId};

use crate::collector::{Collector, SimPayload};
use crate::fleet::{Fleet, Link};
use crate::oracle::Oracle;
use crate::plan::{Executor, Plan, SiteOp};
use crate::report::RunReport;
use crate::runtime::SyncMode;

/// Configuration of a cluster run.
///
/// The `net`, `faults` and `seed` fields parameterize the [`SimNetwork`]
/// constructors ([`Cluster::new`] / [`Cluster::from_scenario`]); transports
/// supplied through [`Cluster::with_transport`] ignore them. The settle
/// valve applies to every transport.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Network latency/jitter configuration (simulated network only).
    pub net: SimNetworkConfig,
    /// Fault injection plan (simulated network only).
    pub faults: FaultPlan,
    /// RNG seed for the network (simulated network only).
    pub seed: u64,
    /// Safety valve for the settle loop; `0` means the default (64 rounds).
    pub max_settle_rounds: u32,
    /// Snapshot pipeline for every site runtime (incremental by default;
    /// [`SyncMode::FullRescan`] retains the pre-delta reference path).
    pub sync_mode: SyncMode,
    /// When true (the default), every local collection is cross-checked
    /// against the global reachability oracle — an O(cluster) pass per
    /// collection. The perf harness disables it to measure the collectors,
    /// not the oracle.
    pub safety_oracle: bool,
    /// Site durability: off (volatile sites, the default), the in-memory
    /// durable medium, or on-disk stores. Crash faults in
    /// [`ClusterConfig::faults`] require durability — a crashed volatile
    /// site could not come back.
    pub durability: DurabilityConfig,
    /// Worker threads for the parallel drive loop
    /// ([`ParallelCluster`](crate::ParallelCluster)). `0` — the default —
    /// means the sequential single-threaded driver; the sequential
    /// [`Cluster`] ignores this field entirely, so every deterministic
    /// path is bit-for-bit unaffected. `ParallelCluster` requires ≥ 1 and
    /// hosts the sites sharded across that many workers.
    pub workers: u32,
    /// Observability (`ggd-obs`): per-site metrics, structured trace events
    /// and the object-lifecycle ledger. Off by default — every probe is a
    /// no-op then, so the measured paths are unchanged.
    pub obs: ObsConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            net: SimNetworkConfig::default(),
            faults: FaultPlan::default(),
            seed: 0,
            max_settle_rounds: 0,
            sync_mode: SyncMode::default(),
            safety_oracle: true,
            durability: DurabilityConfig::off(),
            workers: 0,
            obs: ObsConfig::default(),
        }
    }
}

impl ClusterConfig {
    pub(crate) fn settle_rounds(&self) -> u32 {
        if self.max_settle_rounds == 0 {
            64
        } else {
            self.max_settle_rounds
        }
    }
}

/// A cluster of sites, each a [`SiteRuntime`](crate::SiteRuntime) pairing a
/// heap with a garbage-detection engine, connected by a [`Transport`].
///
/// The transport defaults to the deterministic [`SimNetwork`], so
/// experiment code reads exactly as before the transport abstraction:
/// `Cluster::from_scenario(&scenario, config, CausalCollector::new)`.
pub struct Cluster<C, T = SimNetwork<SimPayload<<C as Collector>::Msg>>>
where
    C: Collector,
    T: Transport<SimPayload<C::Msg>>,
{
    plan: Plan,
    exec: Local<C, T>,
}

/// The in-thread executor: the whole fleet over one transport.
struct Local<C: Collector, T> {
    config: ClusterConfig,
    fleet: Fleet<C>,
    /// Collector factory, retained so crashed and joining sites can be
    /// built.
    factory: Box<dyn Fn(SiteId) -> C>,
    net: Stamped<T>,
    safety_violations: u64,
}

/// The transport plus the clock stamps of the run report.
struct Stamped<T> {
    transport: T,
    triggered_at: Option<u64>,
    last_verdict_at: Option<u64>,
    triggered_step: Option<u64>,
    last_verdict_step: Option<u64>,
}

impl<M, T> Link<M> for Stamped<T>
where
    SimPayload<M>: ggd_net::Payload,
    T: Transport<SimPayload<M>>,
{
    fn send(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>) {
        self.transport.send(from, to, payload);
    }

    fn stamp_verdict(&mut self, step: u64) {
        self.last_verdict_at = Some(self.transport.now());
        self.last_verdict_step = Some(step);
    }

    fn stamp_trigger(&mut self, step: u64) {
        if self.triggered_at.is_none() {
            self.triggered_at = Some(self.transport.now());
            self.triggered_step = Some(step);
        }
    }
}

impl<C, T> fmt::Debug for Cluster<C, T>
where
    C: Collector + fmt::Debug,
    T: Transport<SimPayload<C::Msg>> + fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.exec.config)
            .field("plan", &self.plan)
            .field("recoveries", &self.exec.fleet.recoveries)
            .field("net", &self.exec.net.transport)
            .finish_non_exhaustive()
    }
}

impl<C: Collector> Cluster<C> {
    /// Creates a cluster of `sites` sites over a deterministic
    /// [`SimNetwork`] built from `config`, constructing each site's
    /// collector with `factory`.
    pub fn new(sites: u32, config: ClusterConfig, factory: impl Fn(SiteId) -> C + 'static) -> Self {
        let net = SimNetwork::with_faults(config.net, config.faults.clone(), config.seed);
        Cluster::with_transport(sites, config, net, factory)
    }

    /// Creates a simulated cluster sized for `scenario`.
    pub fn from_scenario(
        scenario: &Scenario,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> Self {
        Cluster::new(scenario.site_count(), config, factory)
    }

    /// Mutable access to the simulated network's fault plan (heal
    /// partitions, resume stalled sites, …) between steps.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        self.exec.net.transport.faults_mut()
    }

    /// Builds a simulated cluster for `scenario`, runs it to completion and
    /// returns the report together with the finished cluster, ready for
    /// oracle inspection ([`Cluster::garbage_addrs`],
    /// [`Cluster::reclaimed_addrs`]). Everything is derived from
    /// `(scenario, config)`, so calling this twice with the same inputs
    /// produces identical reports — the replay-determinism contract the
    /// differential explorer cross-checks.
    pub fn run_seeded(
        scenario: &Scenario,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> (RunReport, Self) {
        let mut cluster = Cluster::from_scenario(scenario, config, factory);
        let report = cluster.run(scenario);
        (report, cluster)
    }
}

impl<C: Collector> Cluster<C, ThreadedNetwork<SimPayload<C::Msg>>>
where
    C::Msg: Send + 'static,
{
    /// Creates a cluster of `sites` sites over a [`ThreadedNetwork`]: every
    /// inter-site message crosses real OS threads. `config.net` and
    /// `config.seed` are ignored (the threaded transport is unseeded), and
    /// of `config.faults` only the crash schedule applies — the threaded
    /// transport neither drops, duplicates, delays, stalls nor partitions
    /// otherwise.
    pub fn threaded(
        sites: u32,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> Self {
        let net = ThreadedNetwork::for_sites_with_faults(sites, config.faults.clone());
        Cluster::with_transport(sites, config, net, factory)
    }

    /// Creates a threaded cluster sized for `scenario`: transport endpoints
    /// for every site the scenario can ever reach (joins included), runtimes
    /// for the founding sites only — joined sites get theirs when their join
    /// executes.
    pub fn threaded_from_scenario(
        scenario: &Scenario,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> Self {
        let net = ThreadedNetwork::for_sites_with_faults(
            scenario.max_site_count(),
            config.faults.clone(),
        );
        Cluster::with_transport(scenario.site_count(), config, net, factory)
    }
}

impl<C, T> Cluster<C, T>
where
    C: Collector,
    T: Transport<SimPayload<C::Msg>>,
{
    /// Creates a cluster of `sites` sites over an explicit `transport`.
    ///
    /// # Panics
    ///
    /// Panics when the fault plan schedules site crashes but
    /// [`ClusterConfig::durability`] is off: a crashed volatile site loses
    /// its heap with no way back, so crash faults require a durable
    /// backend.
    pub fn with_transport(
        sites: u32,
        config: ClusterConfig,
        transport: T,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> Self {
        assert!(
            config.faults.crashes().is_empty() || config.durability.is_on(),
            "crash faults require durability (ClusterConfig::durability)"
        );
        let mut fleet = Fleet::new(&config);
        for site in (0..sites).map(SiteId::new) {
            fleet.open(site, factory(site));
        }
        Cluster {
            plan: Plan::new(sites, &config),
            exec: Local {
                config,
                fleet,
                factory: Box::new(factory),
                net: Stamped {
                    transport,
                    triggered_at: None,
                    last_verdict_at: None,
                    triggered_step: None,
                    last_verdict_step: None,
                },
                safety_violations: 0,
            },
        }
    }

    /// The address allocated for a symbolic object name, if it exists yet.
    pub fn addr_of(&self, name: ObjName) -> Option<GlobalAddr> {
        self.plan.addr_of(name)
    }

    /// Read access to a site's heap.
    pub fn heap(&self, site: SiteId) -> &SiteHeap {
        self.exec.fleet.heap(site)
    }

    /// Read access to a site's collector.
    pub fn collector(&self, site: SiteId) -> &C {
        self.exec.fleet.collector(site)
    }

    /// Iterates over every site's heap — the inputs the [`Oracle`] judges
    /// the cluster by. Downed sites contribute their crash-time heap: the
    /// durable store restores exactly it on recovery, so those objects
    /// still exist in the ground-truth object graph.
    pub fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        self.exec.fleet.heaps()
    }

    /// The addresses of every object reclaimed by local collections so far.
    /// Differential checks compare these sets across collectors (e.g.
    /// reference listing must never reclaim a cycle member).
    pub fn reclaimed_addrs(&self) -> &BTreeSet<GlobalAddr> {
        &self.exec.fleet.reclaimed_addrs
    }

    /// The current residual-garbage set: objects that exist but are
    /// globally unreachable, per the oracle.
    pub fn garbage_addrs(&self) -> BTreeSet<GlobalAddr> {
        Oracle::garbage(self.heaps())
    }

    /// Runs a whole scenario and returns the end-of-run report. Sites whose
    /// crash window extends past the scenario's end are recovered before
    /// the final settle, so the report always covers the whole cluster.
    pub fn run(&mut self, scenario: &Scenario) -> RunReport {
        self.plan.run(&mut self.exec, scenario);
        self.report()
    }

    /// Executes a single mutator operation.
    ///
    /// Under a crash plan, operations on a site that is currently down are
    /// skipped — the mutator process died with its site — and so are
    /// operations using a name whose `Alloc` was itself skipped. The skip
    /// pattern is a pure function of `(scenario, fault plan, seed)`, so
    /// replay determinism is preserved.
    pub fn execute(&mut self, op: MutatorOp) {
        self.plan.execute(&mut self.exec, op);
    }

    /// Executes one epoch-stamped membership event — join, planned leave
    /// (quiesce, reference handoff on every survivor, quiesce, dissolve) or
    /// eviction (no ceremony; the evicted heap is kept for the oracle, so
    /// whatever it pinned becomes residual garbage, never a wrong verdict).
    /// After a planned leave no reference to the departed site survives
    /// anywhere — the membership oracle ([`Cluster::sites_mentioning`])
    /// pins that.
    pub fn execute_membership(&mut self, ev: MembershipEvent) {
        self.plan.membership(&mut self.exec, ev);
    }

    /// The sites whose collector state or heap still references `departed`.
    /// Empty after a planned leave — the membership oracle of the explorer
    /// corpus asserts exactly this, cluster-wide, for all three collectors.
    pub fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        self.exec.fleet.sites_mentioning(departed)
    }

    /// Sites gone through a planned leave so far.
    pub fn departed_sites(&self) -> &BTreeSet<SiteId> {
        self.plan.departed()
    }

    /// Sites evicted so far.
    pub fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.exec.fleet.evicted_sites()
    }

    /// Current expected membership (up or temporarily crashed).
    pub fn membership(&self) -> &BTreeSet<SiteId> {
        self.plan.members()
    }

    /// Delivers every in-flight message, running local collections between
    /// rounds, until the whole system is quiescent (or the settle-round
    /// safety valve trips).
    pub fn settle(&mut self) {
        self.exec.settle(&mut self.plan);
    }

    /// Runs a local collection on one site, checking every freed object
    /// against the oracle (unless [`ClusterConfig::safety_oracle`] is off).
    pub fn collect_site(&mut self, site: SiteId) {
        self.exec.collect_site(site, self.plan.step());
    }

    /// Runs a local collection on every site.
    pub fn collect_all(&mut self) {
        self.exec.collect_all(self.plan.step());
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> RunReport {
        let fleet = &self.exec.fleet;
        let net = &self.exec.net;
        RunReport {
            collector: fleet
                .sites()
                .first()
                .map(|&site| fleet.collector(site).name().to_owned())
                .unwrap_or_default(),
            safety_violations: self.exec.safety_violations,
            finished_at: net.transport.now(),
            last_verdict_at: net.last_verdict_at,
            triggered_at: net.triggered_at,
            triggered_step: net.triggered_step,
            last_verdict_step: net.last_verdict_step,
            net: net.transport.metrics_snapshot(),
            ..fleet.report()
        }
    }

    /// Assembles the observability report: the cluster scope (network and
    /// durable-store aggregates as auxiliary gauges), then every site scope
    /// (collector and heap counters as auxiliary gauges on top of whatever
    /// the probes recorded). Empty/disabled when [`ClusterConfig::obs`] is
    /// off.
    pub fn obs_report(&self) -> ObsReport {
        let net = self.exec.net.transport.metrics_snapshot();
        self.exec.fleet.obs_report(&self.plan.obs, &net)
    }

    /// The transport's current clock value.
    pub fn net_now(&self) -> u64 {
        self.exec.net.transport.now()
    }

    /// True when the site's runtime is currently up.
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.exec.fleet.is_up(site)
    }

    /// Number of site recoveries performed so far.
    pub fn recoveries(&self) -> u64 {
        self.exec.fleet.recoveries
    }

    /// Aggregated durable-store counters across every site (up or down).
    /// All zeros with durability off.
    pub fn store_stats(&self) -> StoreStats {
        self.exec.fleet.store_stats()
    }

    /// Crashes `site` and recovers it from its durable store on the spot —
    /// the recovery-equivalence tests and the perf suite's replay
    /// measurements use this to exercise the full checkpoint-load +
    /// log-replay path at a point of their choosing.
    ///
    /// # Panics
    ///
    /// Panics when durability is off (the site could not come back) or the
    /// site is unknown.
    pub fn crash_and_recover(&mut self, site: SiteId) {
        assert!(
            self.exec.config.durability.is_on(),
            "crash_and_recover requires durability"
        );
        assert!(self.plan.members().contains(&site), "unknown site {site}");
        self.plan.crash_and_recover(&mut self.exec, site);
    }
}

impl<C, T> Local<C, T>
where
    C: Collector,
    T: Transport<SimPayload<C::Msg>>,
{
    /// Stamps the first step at which each currently-garbage object was
    /// observed unreachable (first sighting wins in the ledger). Only with
    /// observability *and* the safety oracle on: a global reachability
    /// pass per step is exactly the cost the oracle flag already opts into.
    fn mark_garbage_unreachable(&mut self, step: u64) {
        if self.config.obs.enabled && self.config.safety_oracle {
            self.fleet.mark_unreachable(step);
        }
    }

    /// Runs a local collection on one up site, checking every freed object
    /// against the oracle (unless [`ClusterConfig::safety_oracle`] is off).
    fn collect_site(&mut self, site: SiteId, step: u64) {
        if !self.fleet.is_up(site) {
            return;
        }
        // A heap that cannot have garbage frees nothing, so there is no
        // sweep for the O(cluster) safety pass to police.
        let live = (self.config.safety_oracle && self.fleet.heap(site).may_have_garbage())
            .then(|| Oracle::reachable(self.fleet.heaps()));
        self.mark_garbage_unreachable(step);
        let freed = self.fleet.collect(site, step, &mut self.net);
        if let Some(live) = live {
            let unsafe_frees = freed
                .iter()
                .filter(|&&id| live.contains(&GlobalAddr::from_parts(site, id)));
            self.safety_violations += unsafe_frees.count() as u64;
        }
    }
}

impl<C, T> Executor for Local<C, T>
where
    C: Collector,
    T: Transport<SimPayload<C::Msg>>,
{
    fn now(&self) -> u64 {
        self.net.transport.now()
    }

    fn apply(&mut self, site: SiteId, op: SiteOp, step: u64) {
        if op == SiteOp::Collect {
            self.collect_site(site, step);
        } else {
            self.fleet.apply(site, op, step, &mut self.net);
        }
    }

    fn collect_all(&mut self, step: u64) {
        for site in self.fleet.sites() {
            self.collect_site(site, step);
        }
    }

    fn settle(&mut self, plan: &mut Plan) {
        let mut rounds: u64 = 0;
        let mut delivered: u64 = 0;
        for _ in 0..self.config.settle_rounds() {
            rounds += 1;
            let mut progressed = false;
            plan.lifecycle(self);
            while let Some(delivery) = self.net.transport.poll() {
                progressed = true;
                delivered += 1;
                // The transport clock advanced: crash windows may have
                // opened or closed. The transport filters deliveries to
                // crashed sites by its own clock; a message can still slip
                // through in the instant before the plan observes the
                // crash, and then dies with the site's inbox.
                plan.lifecycle(self);
                self.fleet.deliver(
                    delivery.from,
                    delivery.to,
                    delivery.payload,
                    plan.step(),
                    &mut self.net,
                );
            }
            self.collect_all(plan.step());
            if !progressed && self.net.transport.pending() == 0 {
                break;
            }
        }
        // Round/delivery counts are schedule-shaped (the parallel driver
        // settles in drain waves), hence a non-deterministic event.
        plan.obs.event(
            "settle",
            false,
            &[("rounds", rounds), ("delivered", delivered)],
        );
    }

    fn crash(&mut self, site: SiteId) {
        self.fleet.crash(site);
    }

    fn recover(&mut self, site: SiteId, step: u64) {
        self.fleet.recover(site, &self.factory, step, &mut self.net);
    }

    fn join(&mut self, site: SiteId, history: &[MembershipAnnouncement], step: u64) {
        let collector = (self.factory)(site);
        self.fleet
            .join(site, collector, history, step, &mut self.net);
    }

    fn handoff(&mut self, departing: SiteId, epoch: u64, step: u64) {
        self.fleet.handoff(departing, epoch, step, &mut self.net);
    }

    fn dissolve(&mut self, site: SiteId) {
        self.fleet.dissolve(site);
    }

    fn evict(&mut self, site: SiteId) {
        self.fleet.evict(site);
    }

    fn announce(&mut self, ann: MembershipAnnouncement, step: u64) {
        self.fleet.announce(ann, step, &mut self.net);
    }

    fn end_step(&mut self, step: u64) {
        self.mark_garbage_unreachable(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CausalCollector;
    use ggd_mutator::{workloads, Step};

    fn run_causal(scenario: &Scenario) -> RunReport {
        let mut cluster =
            Cluster::from_scenario(scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(scenario);
        eprintln!("{report}");
        report
    }

    #[test]
    fn paper_example_collects_the_disconnected_cycle() {
        let scenario = workloads::paper_example();
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert_eq!(report.allocated, 4);
        // Objects 2, 3 and 4 are reclaimed; the root survives.
        assert_eq!(report.reclaimed, 3);
        assert!(report.verdicts >= 3);
        assert!(report.detection_latency().is_some());
    }

    #[test]
    fn paper_example_message_counts_are_stable() {
        // Determinism guard for the transport refactor: the paper example on
        // the default SimNetwork must produce exactly the message counts the
        // pre-refactor cluster produced (BENCH_baseline.json tracks the same
        // numbers across future PRs).
        let report = run_causal(&workloads::paper_example());
        assert_eq!(report.mutator_messages(), 6);
        assert_eq!(report.control_messages(), 12);
        assert_eq!(report.detection_latency(), Some(5));
    }

    #[test]
    fn paper_example_on_threads_matches_the_simulated_outcome() {
        let scenario = workloads::paper_example();
        let mut cluster = Cluster::threaded_from_scenario(
            &scenario,
            ClusterConfig::default(),
            CausalCollector::new,
        );
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert_eq!(report.reclaimed, 3);
        // Message *outcomes* match the simulated run; timings are logical.
        assert_eq!(report.mutator_messages(), 6);
    }

    #[test]
    fn debug_paper_example_state() {
        let scenario = workloads::paper_example();
        let mut cluster =
            Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&scenario);
        eprintln!("{report}");
        for site in 0..4u32 {
            let s = ggd_types::SiteId::new(site);
            let heap = cluster.heap(s);
            for obj in heap.iter() {
                eprintln!(
                    "site {site} still has {} (global_root={})",
                    obj.id(),
                    heap.is_global_root(obj.id())
                );
            }
            eprintln!(
                "--- site {site} engine log:\n{}",
                cluster.collector(s).engine().log()
            );
        }
    }

    #[test]
    fn debug_list_state() {
        let scenario = workloads::doubly_linked_list(6);
        let mut cluster =
            Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&scenario);
        eprintln!("{report}");
        for site in 0..7u32 {
            let s = ggd_types::SiteId::new(site);
            let heap = cluster.heap(s);
            for obj in heap.iter() {
                eprintln!(
                    "site {site} still has {} (gr={})",
                    obj.id(),
                    heap.is_global_root(obj.id())
                );
            }
            eprintln!(
                "--- site {site} log:\n{}",
                cluster.collector(s).engine().log()
            );
        }
    }

    #[test]
    fn ring_garbage_is_collected_comprehensively() {
        let scenario = workloads::ring(5);
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert_eq!(report.reclaimed, 5);
    }

    #[test]
    fn doubly_linked_list_collapse() {
        let scenario = workloads::doubly_linked_list(6);
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert_eq!(report.reclaimed, 6);
    }

    #[test]
    fn live_data_survives_random_churn() {
        // Rare interleavings of concurrent re-exports under churn can leave
        // an object undetected (residual garbage, never a safety risk) — see
        // "Known limitations" in DESIGN.md. A scan of seeds 0..12 shows
        // streams 2, 6 and 9 hit that case (1–2 objects); the assertions
        // below pin the exact residual per seed so that any *different* or
        // *larger* detection gap still fails loudly.
        for (seed, expected_residual) in [(0, 0), (1, 0), (2, 1), (3, 0), (4, 0), (5, 0)] {
            let scenario = workloads::random_churn(4, 80, seed);
            let report = run_causal(&scenario);
            assert_eq!(report.safety_violations, 0, "seed {seed} violated safety");
            assert_eq!(
                report.residual_garbage, expected_residual,
                "seed {seed}: unexpected residual garbage"
            );
        }
    }

    #[test]
    fn message_loss_never_compromises_safety() {
        let scenario = workloads::random_churn(4, 60, 7);
        let config = ClusterConfig {
            faults: FaultPlan::new().with_drop_probability(0.3),
            seed: 3,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        // Residual garbage is allowed (and expected) under loss.
    }

    #[test]
    fn duplication_changes_nothing_but_counts() {
        let scenario = workloads::ring(4);
        let config = ClusterConfig {
            faults: FaultPlan::new().with_duplicate_probability(0.5),
            seed: 9,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
    }

    #[test]
    fn crash_and_recover_at_quiescence_changes_nothing() {
        // Crash+recover every site (one at a time) at a quiescent point in
        // the middle of the paper example: the final report must equal the
        // uncrashed run's bit for bit (same ClusterConfig, so the same
        // checkpoint cadence).
        use ggd_store::DurabilityConfig;
        let scenario = workloads::paper_example();
        let durable = || ClusterConfig {
            durability: DurabilityConfig::memory().with_checkpoint_every(4),
            ..ClusterConfig::default()
        };
        // Both runs follow the identical schedule (including the mid-run
        // settle that establishes quiescence); they differ only in the
        // crash+recover step.
        let drive = |victim: Option<u32>| {
            let mut cluster = Cluster::from_scenario(&scenario, durable(), CausalCollector::new);
            let half = scenario.steps().len() / 2;
            for step in &scenario.steps()[..half] {
                match step {
                    Step::Op(op) => cluster.execute(*op),
                    Step::Settle => cluster.settle(),
                    Step::Membership(ev) => cluster.execute_membership(*ev),
                }
            }
            cluster.settle(); // quiescence: nothing in flight
            if let Some(victim) = victim {
                cluster.crash_and_recover(ggd_types::SiteId::new(victim));
            }
            for step in &scenario.steps()[half..] {
                match step {
                    Step::Op(op) => cluster.execute(*op),
                    Step::Settle => cluster.settle(),
                    Step::Membership(ev) => cluster.execute_membership(*ev),
                }
            }
            cluster.settle();
            let report = cluster.report();
            (report, cluster.recoveries(), cluster.store_stats())
        };

        let (baseline_report, _, _) = drive(None);
        assert_eq!(baseline_report.safety_violations, 0);
        assert_eq!(baseline_report.residual_garbage, 0);

        for victim in 0..scenario.site_count() {
            let (report, recoveries, stats) = drive(Some(victim));
            assert_eq!(
                report, baseline_report,
                "crash+recover of site {victim} at quiescence changed the outcome"
            );
            assert_eq!(recoveries, 1);
            assert!(stats.records_appended > 0);
        }
    }

    #[test]
    fn scheduled_crash_is_survived_safely() {
        // A crash window under load: safety must hold; with durability the
        // site comes back and the cluster finishes the scenario.
        use ggd_store::DurabilityConfig;
        let scenario = workloads::random_churn(4, 60, 3);
        let config = ClusterConfig {
            faults: FaultPlan::new().with_crash(ggd_types::SiteId::new(3), 5, 40),
            durability: DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert!(cluster.site_is_up(ggd_types::SiteId::new(3)));
        assert!(
            cluster.recoveries() >= 1,
            "the crash window must have fired"
        );
        // Residual garbage is allowed: in-flight messages died with the
        // site, which the fault model counts as loss.
    }

    #[test]
    #[should_panic(expected = "crash faults require durability")]
    fn crash_faults_without_durability_are_rejected() {
        let config = ClusterConfig {
            faults: FaultPlan::new().with_crash(ggd_types::SiteId::new(0), 1, 2),
            ..ClusterConfig::default()
        };
        let _ = Cluster::new(2, config, CausalCollector::new);
    }

    #[test]
    fn garbage_island_only_involves_its_sites() {
        let scenario = workloads::garbage_island(8, 3, 2);
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        // Only the island (3 objects) is garbage; the live chains survive.
        assert_eq!(report.reclaimed, 3);
    }

    /// Three sites; site 0's root holds a reference to site 2's exported
    /// object; site 2 then leaves in an orderly fashion.
    fn leave_scenario() -> Scenario {
        let mut s = Scenario::new(3);
        let a = s.alloc(ggd_types::SiteId::new(0), true);
        let c = s.alloc(ggd_types::SiteId::new(2), true);
        s.send_ref(ggd_types::SiteId::new(2), a, c);
        s.settle();
        s.planned_leave(ggd_types::SiteId::new(2));
        s.settle();
        s
    }

    #[test]
    fn planned_leave_leaves_no_trace_of_the_departed_site() {
        let scenario = leave_scenario();
        let departed = ggd_types::SiteId::new(2);
        let mut cluster =
            Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert!(!cluster.site_is_up(departed));
        assert!(cluster.departed_sites().contains(&departed));
        assert_eq!(
            cluster.sites_mentioning(departed),
            Vec::new(),
            "no heap reference or collector entry may survive a planned leave"
        );
        assert_eq!(cluster.membership().len(), 2);
        assert_eq!(report.sites, 2);
    }

    #[test]
    fn baseline_collectors_also_forget_a_departed_site() {
        use crate::collector::{RefListingCollector, TracingCollector};
        let scenario = leave_scenario();
        let departed = ggd_types::SiteId::new(2);

        let mut tracing = Cluster::from_scenario(
            &scenario,
            ClusterConfig::default(),
            TracingCollector::factory(scenario.site_count()),
        );
        let report = tracing.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(tracing.sites_mentioning(departed), Vec::new());

        let mut reflisting = Cluster::from_scenario(
            &scenario,
            ClusterConfig::default(),
            RefListingCollector::new,
        );
        let report = reflisting.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(reflisting.sites_mentioning(departed), Vec::new());
    }

    #[test]
    fn a_joined_site_participates_and_collects() {
        let s0 = ggd_types::SiteId::new(0);
        let joiner = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(2);
        let a = s.alloc(s0, true);
        s.settle();
        s.join(joiner);
        let d = s.alloc(joiner, true);
        s.send_ref(joiner, a, d);
        s.settle();
        s.op(MutatorOp::ClearRefs { site: s0, name: a });
        s.op(MutatorOp::DropLocalRoot {
            site: joiner,
            name: d,
        });
        s.settle();

        let mut cluster =
            Cluster::from_scenario(&s, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert!(cluster.site_is_up(joiner));
        assert_eq!(report.sites, 3);
        assert!(
            report.reclaimed >= 1,
            "the joiner's dropped export must be detected and reclaimed"
        );
    }

    #[test]
    fn a_joined_site_is_durable_from_its_first_input() {
        use ggd_store::DurabilityConfig;
        let s0 = ggd_types::SiteId::new(0);
        let joiner = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(2);
        let a = s.alloc(s0, true);
        s.settle();
        s.join(joiner);
        let d = s.alloc(joiner, true);
        s.send_ref(joiner, a, d);
        s.settle();

        let config = ClusterConfig {
            durability: DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&s, config, CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(report.safety_violations, 0);
        let before = cluster.heap(joiner).snapshot();
        cluster.crash_and_recover(joiner);
        assert_eq!(
            cluster.heap(joiner).snapshot().edges(),
            before.edges(),
            "a mid-run joiner recovers its full state from its own WAL"
        );
        assert_eq!(cluster.recoveries(), 1);
    }

    #[test]
    fn evicted_site_stays_residual_only() {
        let departed = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(ggd_types::SiteId::new(0), true);
        let c = s.alloc(departed, true);
        s.send_ref(departed, a, c);
        s.settle();
        s.evict(departed);
        s.settle();

        let mut cluster =
            Cluster::from_scenario(&s, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(
            report.safety_violations, 0,
            "eviction must never cause an unsafe sweep"
        );
        assert!(!cluster.site_is_up(departed));
        assert_eq!(cluster.evicted_sites().collect::<Vec<_>>(), vec![departed]);
        // No handoff happened: the survivor still references the evicted
        // site's heap, which conservatively still exists — residual only.
        assert!(!cluster.sites_mentioning(departed).is_empty());
    }

    #[test]
    fn a_survivor_down_across_a_leave_hands_off_at_recovery() {
        use ggd_store::DurabilityConfig;
        let s0 = ggd_types::SiteId::new(0);
        let s1 = ggd_types::SiteId::new(1);
        let s2 = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(s0, true);
        let b = s.alloc(s1, true);
        let c = s.alloc(s2, true);
        s.send_ref(s2, a, c);
        s.send_ref(s2, b, c);
        s.settle();
        s.planned_leave(s2);
        s.settle();

        // Probe the prefix (everything before the leave) for the quiescent
        // clock value, so the crash window opens exactly there: site 1 goes
        // down holding its reference to site 2 and sleeps through the leave.
        let durable = || ClusterConfig {
            durability: DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        let prefix = s.steps().len() - 2;
        let mut probe = Cluster::from_scenario(&s, durable(), CausalCollector::new);
        for step in &s.steps()[..prefix] {
            match step {
                Step::Op(op) => probe.execute(*op),
                Step::Settle => probe.settle(),
                Step::Membership(ev) => probe.execute_membership(*ev),
            }
        }
        let crash_at = probe.net_now();

        let config = ClusterConfig {
            faults: FaultPlan::new().with_crash(s1, crash_at, u64::MAX),
            ..durable()
        };
        let mut cluster = Cluster::from_scenario(&s, config, CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(cluster.recoveries(), 1, "site 1 crashed and came back");
        assert!(cluster.site_is_up(s1));
        assert_eq!(
            cluster.sites_mentioning(s2),
            Vec::new(),
            "the recovered survivor must have caught up on the handoff"
        );
    }

    #[test]
    fn split_and_heal_is_safe_for_every_collector_on_both_transports() {
        use crate::collector::{RefListingCollector, TracingCollector};
        let scenario = workloads::random_churn(4, 60, 5);
        let faults = FaultPlan::new().with_split(4, 5, 40);
        let config = || ClusterConfig {
            faults: faults.clone(),
            ..ClusterConfig::default()
        };
        let check = |report: RunReport, name: &str, threaded: bool| {
            assert_eq!(
                report.safety_violations, 0,
                "{name} violated safety under a split-and-heal (threaded={threaded})"
            );
        };
        // Simulated transport.
        let mut c = Cluster::from_scenario(&scenario, config(), CausalCollector::new);
        check(c.run(&scenario), "causal", false);
        let mut c = Cluster::from_scenario(
            &scenario,
            config(),
            TracingCollector::factory(scenario.site_count()),
        );
        check(c.run(&scenario), "tracing", false);
        let mut c = Cluster::from_scenario(&scenario, config(), RefListingCollector::new);
        check(c.run(&scenario), "reflisting", false);
        // Threaded transport.
        let mut c = Cluster::threaded_from_scenario(&scenario, config(), CausalCollector::new);
        check(c.run(&scenario), "causal", true);
        let mut c = Cluster::threaded_from_scenario(
            &scenario,
            config(),
            TracingCollector::factory(scenario.site_count()),
        );
        check(c.run(&scenario), "tracing", true);
        let mut c = Cluster::threaded_from_scenario(&scenario, config(), RefListingCollector::new);
        check(c.run(&scenario), "reflisting", true);
    }
}
