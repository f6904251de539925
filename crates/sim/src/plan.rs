//! The coordinator-side decisions both drivers share.
//!
//! A [`Plan`] turns a scenario into site-level work without touching a
//! single runtime: it resolves symbolic object names to [`GlobalAddr`]s
//! (predicting allocation addresses), decides which ops a crash window or a
//! departure skips, walks the fault plan's crash schedule, and sequences
//! membership changes and whole scenario runs. Every effect goes through an
//! [`Executor`]: the sequential [`Cluster`](crate::Cluster) executes in
//! its own thread, the parallel coordinator mails commands to its workers.

use std::collections::{BTreeMap, BTreeSet};

use ggd_mutator::{MembershipEvent, MembershipKind, MutatorOp, ObjName, Scenario, Step};
use ggd_net::SiteCrash;
use ggd_obs::SiteObs;
use ggd_store::{MembershipAnnouncement, MembershipChange};
use ggd_types::{GlobalAddr, ObjectId, SiteId};

use crate::cluster::ClusterConfig;

/// Monotone mutator-legality state (the executable mirror of the
/// explorer's `sanitize` pass): `holders[name]` is the set of sites that
/// have legally held `name`'s reference, `anchored` the set of objects a
/// mutator message can legally be addressed to. Maintained only under crash
/// plans and membership schedules: when a skip breaks the causal chain that
/// made a later `SendRef` legal in the generated scenario, that send is
/// skipped too — otherwise a site could forward a reference it never held,
/// an illegal computation outside every collector's safety contract.
#[derive(Debug, Default)]
struct Legality {
    holders: BTreeMap<ObjName, BTreeSet<SiteId>>,
    anchored: BTreeSet<ObjName>,
}

impl Legality {
    /// Records a successful `Alloc`: `site` holds `name`, and a local root
    /// makes it addressable.
    fn note_alloc(&mut self, name: ObjName, site: SiteId, local_root: bool) {
        self.holders.entry(name).or_default().insert(site);
        if local_root {
            self.anchored.insert(name);
        }
    }

    /// Judges a `SendRef` and, when legal, records its effects: the sender
    /// must actually have held the target's reference, and the recipient
    /// must be addressable. Holding is recorded at *send* time, mirroring
    /// the explorer's `sanitize` (and the generator's own forwarders
    /// model): a transfer lost en route — to a drop plan or to a crashed
    /// inbox — still legalizes later forwards, because the sender
    /// legitimately performed the send and message loss is inside the
    /// collectors' fault contract (the export registered the target as a
    /// global root, so a forwarded-but-never-received reference can only
    /// add conservatism, never an unsafe free).
    fn approve_send(
        &mut self,
        target: ObjName,
        from_site: SiteId,
        recipient: ObjName,
        recipient_site: SiteId,
    ) -> bool {
        let sender_holds = self
            .holders
            .get(&target)
            .is_some_and(|sites| sites.contains(&from_site));
        if !sender_holds || !self.anchored.contains(&recipient) {
            return false;
        }
        self.anchored.insert(target);
        self.holders
            .entry(target)
            .or_default()
            .insert(recipient_site);
        true
    }
}

/// Stable numeric code for a membership change in trace-event fields
/// (events carry `u64` fields only).
fn kind_code(kind: MembershipChange) -> u64 {
    match kind {
        MembershipChange::Join => 0,
        MembershipChange::PlannedLeave => 1,
        MembershipChange::Evict => 2,
    }
}

/// A mutator op with every name resolved to an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteOp {
    Alloc {
        local_root: bool,
        /// The predicted address; the site's heap must agree or name
        /// resolution has diverged.
        expect: GlobalAddr,
    },
    LinkLocal {
        from: GlobalAddr,
        to: GlobalAddr,
    },
    Unlink {
        from: GlobalAddr,
        to: GlobalAddr,
    },
    ClearRefs {
        addr: GlobalAddr,
    },
    DropLocalRoot {
        addr: GlobalAddr,
    },
    /// Export + reference transfer (an immediate local receive for a
    /// same-site recipient).
    SendRef {
        target: GlobalAddr,
        recipient: GlobalAddr,
    },
    Collect,
}

/// What [`Plan::resolve`] decided for one mutator op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolved {
    /// Apply the op on the site.
    Site(SiteId, SiteOp),
    /// Run a local collection on every up site.
    CollectAll,
    /// Skip the op: its site is down or gone, it names an object that does
    /// not exist (its `Alloc` was skipped) or is hosted by a departed or
    /// evicted site, or it is a send that skips broke the legality of.
    Skip,
}

/// The primitives a driver executes on the [`Plan`]'s behalf. Steps are
/// the plan's logical step clock, for the sites' observability probes.
pub(crate) trait Executor {
    /// The clock crash windows are sampled against.
    fn now(&self) -> u64;
    /// Applies a resolved op on an up site.
    fn apply(&mut self, site: SiteId, op: SiteOp, step: u64);
    /// Runs a local collection on every up site.
    fn collect_all(&mut self, step: u64);
    /// Delivers everything in flight until the system is quiescent, calling
    /// [`Plan::lifecycle`] at the driver's own sampling points.
    fn settle(&mut self, plan: &mut Plan);
    /// Tears an up site's volatile state down, keeping its durable store.
    fn crash(&mut self, site: SiteId);
    /// Rebuilds a downed site from its durable store and catches it up on
    /// the membership steps it missed.
    fn recover(&mut self, site: SiteId, step: u64);
    /// Brings a fresh site up, caught up on `history`.
    fn join(&mut self, site: SiteId, history: &[MembershipAnnouncement], step: u64);
    /// Every site but `departing` severs its references towards it (downed
    /// sites do so at recovery).
    fn handoff(&mut self, departing: SiteId, epoch: u64, step: u64);
    /// Drops a site that completed its planned leave.
    fn dissolve(&mut self, site: SiteId);
    /// Removes a site without ceremony, keeping its last heap (the
    /// crash-time heap of a downed site) for the oracle.
    fn evict(&mut self, site: SiteId);
    /// Applies an announcement on every up site (downed sites apply it at
    /// recovery).
    fn announce(&mut self, ann: MembershipAnnouncement, step: u64);
    /// Called after every scenario step.
    fn end_step(&mut self, _step: u64) {}
}

/// Name resolution, skip analysis, the crash schedule, membership and the
/// step clock — every decision a driver makes above the sites.
#[derive(Debug)]
pub(crate) struct Plan {
    names: BTreeMap<ObjName, GlobalAddr>,
    /// Predicted next allocation id per site (`SiteHeap` allocates ids
    /// 1, 2, … in order; recovery replays preserve the counter).
    next_object: BTreeMap<SiteId, u64>,
    legality: Option<Legality>,
    /// The fault plan's crash schedule, each entry with its applied flag.
    crashes: Vec<(SiteCrash, bool)>,
    /// Members currently down, with their scheduled restart time.
    downed: BTreeMap<SiteId, u64>,
    /// Founding sites, plus joins, minus departures and evictions. Downed
    /// sites stay members (they come back).
    members: BTreeSet<SiteId>,
    departed: BTreeSet<SiteId>,
    evicted: BTreeSet<SiteId>,
    /// Every announcement so far, in epoch order — a late joiner's
    /// catch-up history.
    log: Vec<MembershipAnnouncement>,
    /// The logical step clock: scenario steps executed by [`Plan::run`]
    /// (the first is step 1). Both drivers count the same steps, so
    /// step-stamped timestamps compare across drivers.
    step: u64,
    /// Cluster-scope observability handle.
    pub(crate) obs: SiteObs,
}

impl Plan {
    /// A plan for `sites` founding sites under `config`'s crash schedule.
    pub(crate) fn new(sites: u32, config: &ClusterConfig) -> Self {
        let crashes: Vec<(SiteCrash, bool)> = config
            .faults
            .crashes()
            .iter()
            .map(|&crash| (crash, false))
            .collect();
        Plan {
            names: BTreeMap::new(),
            next_object: BTreeMap::new(),
            legality: (!crashes.is_empty()).then(Legality::default),
            crashes,
            downed: BTreeMap::new(),
            members: (0..sites).map(SiteId::new).collect(),
            departed: BTreeSet::new(),
            evicted: BTreeSet::new(),
            log: Vec::new(),
            step: 0,
            obs: SiteObs::new(None, &config.obs),
        }
    }

    pub(crate) fn step(&self) -> u64 {
        self.step
    }

    pub(crate) fn addr_of(&self, name: ObjName) -> Option<GlobalAddr> {
        self.names.get(&name).copied()
    }

    pub(crate) fn members(&self) -> &BTreeSet<SiteId> {
        &self.members
    }

    pub(crate) fn departed(&self) -> &BTreeSet<SiteId> {
        &self.departed
    }

    fn is_up(&self, site: SiteId) -> bool {
        self.members.contains(&site) && !self.downed.contains_key(&site)
    }

    /// The address of `name`, unless it was never allocated or its site
    /// has permanently left the fleet.
    fn live(&self, name: ObjName) -> Option<GlobalAddr> {
        self.addr_of(name).filter(|addr| {
            !self.departed.contains(&addr.site()) && !self.evicted.contains(&addr.site())
        })
    }

    /// Resolves one mutator op, or decides to skip it. The skip pattern is
    /// a pure function of the scenario, the crash schedule and the clock
    /// samples, so replay determinism is preserved.
    pub(crate) fn resolve(&mut self, op: MutatorOp) -> Resolved {
        let (site, op) = match op {
            MutatorOp::Alloc {
                site,
                name,
                local_root,
            } => {
                if !self.is_up(site) {
                    return Resolved::Skip;
                }
                let next = self.next_object.entry(site).or_insert(1);
                let expect = GlobalAddr::from_parts(site, ObjectId::new(*next));
                *next += 1;
                self.names.insert(name, expect);
                if let Some(legality) = &mut self.legality {
                    legality.note_alloc(name, site, local_root);
                }
                (site, SiteOp::Alloc { local_root, expect })
            }
            MutatorOp::LinkLocal { site, from, to } | MutatorOp::Unlink { site, from, to } => {
                let (Some(from), Some(to)) = (self.live(from), self.live(to)) else {
                    return Resolved::Skip;
                };
                let op = if matches!(op, MutatorOp::LinkLocal { .. }) {
                    SiteOp::LinkLocal { from, to }
                } else {
                    SiteOp::Unlink { from, to }
                };
                (site, op)
            }
            MutatorOp::SendRef {
                from_site,
                recipient,
                target,
            } => {
                let (Some(recipient_addr), Some(target_addr)) =
                    (self.live(recipient), self.live(target))
                else {
                    return Resolved::Skip;
                };
                // Judge legality only for a send that would otherwise run:
                // approval records the transfer.
                if !self.is_up(from_site) {
                    return Resolved::Skip;
                }
                if let Some(legality) = &mut self.legality {
                    if !legality.approve_send(target, from_site, recipient, recipient_addr.site()) {
                        return Resolved::Skip;
                    }
                }
                let op = SiteOp::SendRef {
                    target: target_addr,
                    recipient: recipient_addr,
                };
                (from_site, op)
            }
            MutatorOp::DropLocalRoot { site, name } | MutatorOp::ClearRefs { site, name } => {
                let Some(addr) = self.live(name) else {
                    return Resolved::Skip;
                };
                let op = if matches!(op, MutatorOp::DropLocalRoot { .. }) {
                    SiteOp::DropLocalRoot { addr }
                } else {
                    SiteOp::ClearRefs { addr }
                };
                (site, op)
            }
            MutatorOp::CollectSite { site } => (site, SiteOp::Collect),
            MutatorOp::CollectAll => return Resolved::CollectAll,
        };
        if self.is_up(site) {
            Resolved::Site(site, op)
        } else {
            Resolved::Skip
        }
    }

    /// Advances the step clock by one scenario step.
    fn tick(&mut self) {
        self.step += 1;
        self.obs.set_step(self.step);
    }

    /// Runs a whole scenario: every step, then the end-of-run completion
    /// (one more step: a final settle, plus the forced recovery of sites
    /// whose crash window outlasts the scenario, so the run always ends
    /// with every member up).
    pub(crate) fn run(&mut self, exec: &mut impl Executor, scenario: &Scenario) {
        if scenario.has_membership() && self.legality.is_none() {
            // Departures skip ops exactly like crash windows do, and the
            // skips can break causal send chains.
            self.legality = Some(Legality::default());
        }
        for step in scenario.steps() {
            self.tick();
            match step {
                Step::Op(op) => self.execute(exec, *op),
                Step::Settle => exec.settle(self),
                Step::Membership(ev) => self.membership(exec, *ev),
            }
            exec.end_step(self.step);
        }
        self.tick();
        exec.settle(self);
        exec.end_step(self.step);
        if !self.downed.is_empty() {
            let downed: Vec<SiteId> = self.downed.keys().copied().collect();
            for site in downed {
                self.recover(exec, site);
            }
            exec.settle(self);
        }
    }

    /// Executes one mutator op.
    pub(crate) fn execute(&mut self, exec: &mut impl Executor, op: MutatorOp) {
        self.lifecycle(exec);
        match self.resolve(op) {
            Resolved::Site(site, op) => exec.apply(site, op, self.step),
            Resolved::CollectAll => exec.collect_all(self.step),
            Resolved::Skip => {}
        }
    }

    /// Applies the crash schedule against the executor's clock: opens every
    /// due crash window and recovers every site whose window has closed.
    pub(crate) fn lifecycle(&mut self, exec: &mut impl Executor) {
        if self.crashes.is_empty() && self.downed.is_empty() {
            return;
        }
        let now = exec.now();
        for index in 0..self.crashes.len() {
            let (crash, applied) = self.crashes[index];
            if applied || now < crash.at_round {
                continue;
            }
            self.crashes[index].1 = true;
            self.crash(exec, crash.site, crash.restart_after);
        }
        let due: Vec<SiteId> = self
            .downed
            .iter()
            .filter(|(_, &restart)| restart <= now)
            .map(|(&site, _)| site)
            .collect();
        for site in due {
            self.recover(exec, site);
        }
    }

    /// Takes an up member down until `restart_after`. A site already down
    /// merely has its outage extended (overlapping windows); a site that is
    /// not a member has nothing to crash.
    fn crash(&mut self, exec: &mut impl Executor, site: SiteId, restart_after: u64) {
        if let Some(restart) = self.downed.get_mut(&site) {
            *restart = (*restart).max(restart_after);
        } else if self.members.contains(&site) {
            self.downed.insert(site, restart_after);
            exec.crash(site);
        }
    }

    fn recover(&mut self, exec: &mut impl Executor, site: SiteId) {
        if self.downed.remove(&site).is_some() {
            exec.recover(site, self.step);
        }
    }

    /// Crashes a member and recovers it on the spot.
    pub(crate) fn crash_and_recover(&mut self, exec: &mut impl Executor, site: SiteId) {
        self.crash(exec, site, 0);
        self.recover(exec, site);
    }

    /// Executes one epoch-stamped membership event.
    ///
    /// *Join*: a fresh site comes up, catches up on the membership history,
    /// and the fleet is told.
    ///
    /// *Planned leave*: a downed leaver recovers first; quiesce, so the
    /// leaver's DkLog drains; every survivor performs the reference handoff
    /// (severing its references towards the leaver, durably recorded);
    /// quiesce again; the leaver dissolves; the announcement lets every
    /// survivor retire the leaver's vector entries. After this no reference
    /// to the departed site survives anywhere.
    ///
    /// *Evict*: unplanned and permanent — no quiesce, no handoff, no
    /// recovery. The evicted site's last heap (its crash-time heap when it
    /// was down) is kept for the oracle; collectors stay conservative, so
    /// whatever it pinned becomes residual garbage, never a wrong verdict.
    pub(crate) fn membership(&mut self, exec: &mut impl Executor, ev: MembershipEvent) {
        self.lifecycle(exec);
        let site = ev.site;
        let kind = match ev.kind {
            MembershipKind::Join => {
                if self.members.contains(&site)
                    || self.departed.contains(&site)
                    || self.evicted.contains(&site)
                {
                    return;
                }
                self.members.insert(site);
                exec.join(site, &self.log, self.step);
                MembershipChange::Join
            }
            MembershipKind::PlannedLeave => {
                if !self.members.contains(&site) {
                    return;
                }
                self.recover(exec, site);
                exec.settle(self);
                self.obs.event(
                    "handoff",
                    true,
                    &[("epoch", ev.epoch), ("departing", u64::from(site.index()))],
                );
                exec.handoff(site, ev.epoch, self.step);
                exec.settle(self);
                exec.dissolve(site);
                self.members.remove(&site);
                self.downed.remove(&site);
                self.departed.insert(site);
                MembershipChange::PlannedLeave
            }
            MembershipKind::Evict => {
                if !self.members.contains(&site) {
                    return;
                }
                exec.evict(site);
                self.members.remove(&site);
                self.downed.remove(&site);
                self.evicted.insert(site);
                MembershipChange::Evict
            }
        };
        let ann = MembershipAnnouncement {
            epoch: ev.epoch,
            kind,
            site,
        };
        self.obs.event(
            "membership",
            true,
            &[
                ("epoch", ann.epoch),
                ("site", u64::from(site.index())),
                ("kind", kind_code(kind)),
            ],
        );
        self.log.push(ann);
        exec.announce(ann, self.step);
        exec.settle(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_net::FaultPlan;

    /// A runtime-free executor: a settable clock and a log of the site
    /// lifecycle primitives the plan asked for.
    #[derive(Default)]
    struct Script {
        now: u64,
        calls: Vec<(&'static str, SiteId)>,
    }

    impl Executor for Script {
        fn now(&self) -> u64 {
            self.now
        }
        fn apply(&mut self, site: SiteId, _op: SiteOp, _step: u64) {
            self.calls.push(("apply", site));
        }
        fn collect_all(&mut self, _step: u64) {}
        fn settle(&mut self, _plan: &mut Plan) {}
        fn crash(&mut self, site: SiteId) {
            self.calls.push(("crash", site));
        }
        fn recover(&mut self, site: SiteId, _step: u64) {
            self.calls.push(("recover", site));
        }
        fn join(&mut self, site: SiteId, _history: &[MembershipAnnouncement], _step: u64) {
            self.calls.push(("join", site));
        }
        fn handoff(&mut self, departing: SiteId, _epoch: u64, _step: u64) {
            self.calls.push(("handoff", departing));
        }
        fn dissolve(&mut self, site: SiteId) {
            self.calls.push(("dissolve", site));
        }
        fn evict(&mut self, site: SiteId) {
            self.calls.push(("evict", site));
        }
        fn announce(&mut self, _ann: MembershipAnnouncement, _step: u64) {}
    }

    const S0: SiteId = SiteId::new(0);
    const S1: SiteId = SiteId::new(1);
    const S2: SiteId = SiteId::new(2);

    /// A three-site plan whose `site` is down over `[at, restart)` on the
    /// script's clock.
    fn crashing(site: SiteId, at: u64, restart: u64) -> Plan {
        let config = ClusterConfig {
            faults: FaultPlan::new().with_crash(site, at, restart),
            ..ClusterConfig::default()
        };
        Plan::new(3, &config)
    }

    fn alloc(site: SiteId, name: u32) -> MutatorOp {
        MutatorOp::Alloc {
            site,
            name: ObjName(name),
            local_root: true,
        }
    }

    fn send(from_site: SiteId, recipient: u32, target: u32) -> MutatorOp {
        MutatorOp::SendRef {
            from_site,
            recipient: ObjName(recipient),
            target: ObjName(target),
        }
    }

    fn addr(site: SiteId, id: u64) -> GlobalAddr {
        GlobalAddr::from_parts(site, ObjectId::new(id))
    }

    fn evict(plan: &mut Plan, exec: &mut Script, site: SiteId) {
        let ev = MembershipEvent {
            epoch: 1,
            kind: MembershipKind::Evict,
            site,
        };
        plan.membership(exec, ev);
    }

    #[test]
    fn ops_on_a_downed_site_are_skipped() {
        let mut plan = crashing(S1, 5, 10);
        let mut exec = Script::default();
        plan.execute(&mut exec, alloc(S0, 0));
        plan.execute(&mut exec, alloc(S1, 1));
        exec.now = 5;
        plan.execute(&mut exec, alloc(S1, 2));
        assert_eq!(exec.calls.last(), Some(&("crash", S1)));
        for op in [
            MutatorOp::ClearRefs {
                site: S1,
                name: ObjName(1),
            },
            MutatorOp::CollectSite { site: S1 },
            send(S1, 0, 1),
        ] {
            assert_eq!(plan.resolve(op), Resolved::Skip, "{op:?}");
        }
        assert_eq!(
            plan.addr_of(ObjName(2)),
            None,
            "a skipped alloc names nothing"
        );
        // Ops on an up site that merely name the downed site's objects run:
        // the objects still exist.
        assert!(matches!(
            plan.resolve(MutatorOp::LinkLocal {
                site: S0,
                from: ObjName(0),
                to: ObjName(1),
            }),
            Resolved::Site(S0, _)
        ));
    }

    #[test]
    fn ops_naming_objects_of_departed_or_evicted_sites_are_skipped() {
        let mut plan = Plan::new(3, &ClusterConfig::default());
        let mut exec = Script::default();
        for (site, name) in [(S0, 0), (S1, 1), (S2, 2)] {
            plan.execute(&mut exec, alloc(site, name));
        }
        evict(&mut plan, &mut exec, S1);
        plan.membership(
            &mut exec,
            MembershipEvent {
                epoch: 2,
                kind: MembershipKind::PlannedLeave,
                site: S2,
            },
        );
        assert_eq!(
            exec.calls[3..],
            [("evict", S1), ("handoff", S2), ("dissolve", S2)]
        );
        for gone in [1, 2] {
            for op in [
                MutatorOp::LinkLocal {
                    site: S0,
                    from: ObjName(0),
                    to: ObjName(gone),
                },
                MutatorOp::Unlink {
                    site: S0,
                    from: ObjName(gone),
                    to: ObjName(0),
                },
                MutatorOp::DropLocalRoot {
                    site: S0,
                    name: ObjName(gone),
                },
                send(S0, 0, gone),
                send(S0, gone, 0),
            ] {
                assert_eq!(plan.resolve(op), Resolved::Skip, "{op:?}");
            }
        }
        assert!(matches!(
            plan.resolve(MutatorOp::ClearRefs {
                site: S0,
                name: ObjName(0),
            }),
            Resolved::Site(S0, SiteOp::ClearRefs { .. })
        ));
    }

    #[test]
    fn sends_the_sender_never_legally_held_are_skipped_with_their_chain() {
        // Site 1 is down for the first alloc of object 3, so it never
        // exists; everything else is allocated while all sites are up.
        let mut plan = crashing(S1, 1, 2);
        let mut exec = Script::default();
        plan.execute(&mut exec, alloc(S0, 0));
        exec.now = 1;
        plan.execute(&mut exec, alloc(S1, 3));
        exec.now = 2;
        for (site, name) in [(S1, 1), (S2, 2)] {
            plan.execute(&mut exec, alloc(site, name));
        }
        assert_eq!(exec.calls[1..3], [("crash", S1), ("recover", S1)]);

        // The crash skipped the target's alloc: the send is skipped.
        assert_eq!(plan.resolve(send(S1, 0, 3)), Resolved::Skip);
        // Site 1 never held object 2's reference: skipped, and so is the
        // forward from site 0 that only that send could have made legal.
        assert_eq!(plan.resolve(send(S1, 0, 2)), Resolved::Skip);
        assert_eq!(plan.resolve(send(S0, 1, 2)), Resolved::Skip);
        // The legal version of the chain runs end to end.
        assert_eq!(
            plan.resolve(send(S2, 0, 2)),
            Resolved::Site(
                S2,
                SiteOp::SendRef {
                    target: addr(S2, 1),
                    recipient: addr(S0, 1),
                }
            )
        );
        assert!(matches!(
            plan.resolve(send(S0, 1, 2)),
            Resolved::Site(S0, _)
        ));
    }

    #[test]
    fn predicted_addresses_continue_across_a_crash_window() {
        let mut plan = crashing(S0, 1, 3);
        let mut exec = Script::default();
        plan.execute(&mut exec, alloc(S0, 0));
        exec.now = 1;
        plan.execute(&mut exec, alloc(S0, 1));
        plan.execute(&mut exec, alloc(S1, 2));
        exec.now = 3;
        plan.execute(&mut exec, alloc(S0, 3));
        assert_eq!(plan.addr_of(ObjName(0)), Some(addr(S0, 1)));
        assert_eq!(plan.addr_of(ObjName(1)), None);
        assert_eq!(plan.addr_of(ObjName(2)), Some(addr(S1, 1)));
        // The recovered heap resumes its id counter where the crash left it.
        assert_eq!(plan.addr_of(ObjName(3)), Some(addr(S0, 2)));
        assert_eq!(
            exec.calls,
            [
                ("apply", S0),
                ("crash", S0),
                ("apply", S1),
                ("recover", S0),
                ("apply", S0)
            ]
        );
    }
}
