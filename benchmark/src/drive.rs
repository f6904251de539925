//! Drives the program through its public API: builds a cluster from a
//! generated scenario, steps it op by op and settle by settle, times each
//! call, and checks what comes out.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use ggd_heap::{ObjRef, SiteHeap};
use ggd_mutator::{Scenario, Step};
use ggd_net::{SimNetwork, SimNetworkConfig};
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, Collector, DurabilityConfig, Oracle, ParallelCluster,
    RunReport, SimPayload,
};
use ggd_types::{GlobalAddr, SiteId};

use crate::inputs::{self, ChurnShape, RingShape};
use crate::probe::{Busy, Probed, Wire, WireCounts};
use crate::trace::{self, Layer, Trace};
use crate::ALLOC;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Local trees under exported anchors with mixed churn: local
    /// mark-sweep and `take_delta` do the work.
    HeapChurn,
    /// Thousands of disconnected inter-site garbage rings: the causal
    /// engine's message handling does the work.
    CrossSiteCycles,
    /// A smaller churn with write-ahead logging and checkpoints, then every
    /// site crashed and recovered: the store does the work.
    DurableRestart,
    /// The churn inputs on `ParallelCluster`.
    ParallelChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::HeapChurn,
        Workload::CrossSiteCycles,
        Workload::DurableRestart,
        Workload::ParallelChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HeapChurn => "heap_churn",
            Workload::CrossSiteCycles => "cross_site_cycles",
            Workload::DurableRestart => "durable_restart",
            Workload::ParallelChurn => "parallel_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn durable(self) -> bool {
        self == Workload::DurableRestart
    }

    /// Generates the workload's scenario; `tiny` shrinks it for tests.
    pub fn inputs(self, seed: u64, tiny: bool) -> Scenario {
        let shrink = |n: usize, by: usize| if tiny { (n / by).max(1) } else { n };
        match self {
            Workload::HeapChurn | Workload::ParallelChurn => inputs::churn(
                &ChurnShape {
                    sites: shrink(64, 16),
                    objects: shrink(100_000, 200),
                    anchors: shrink(16, 8),
                    ops: shrink(40_000, 40),
                    settle_every: shrink(256, 32),
                },
                seed,
            ),
            Workload::CrossSiteCycles => inputs::rings(
                &RingShape {
                    sites: shrink(12, 3),
                    local: shrink(1024, 128),
                    rings: shrink(3_000, 20),
                    max_span: shrink(6, 2),
                    batch: shrink(20, 10),
                    hubs: shrink(4, 2),
                    spokes: shrink(4, 2),
                },
                seed,
            ),
            Workload::DurableRestart => inputs::churn(
                &ChurnShape {
                    sites: shrink(16, 2),
                    objects: shrink(16_000, 50),
                    anchors: shrink(8, 4),
                    ops: shrink(20_000, 10),
                    settle_every: shrink(128, 16),
                },
                seed,
            ),
        }
    }
}

type Msg = <CausalCollector as Collector>::Msg;
type SeqCluster = Cluster<Probed<CausalCollector>, Wire<SimPayload<Msg>>>;

/// A cluster built and pre-populated for a measured phase.
struct Prepared {
    cluster: SeqCluster,
    counts: Rc<Cell<WireCounts>>,
    scenario: Scenario,
    setup_len: usize,
    /// Live heap bytes before the cluster was built.
    base_live: u64,
    setup_s: f64,
}

/// Generates the inputs and builds the sequential cluster up to and
/// including the first settle; the returned time covers all of it.
fn prepare(workload: Workload, seed: u64, tiny: bool, counting: bool) -> Prepared {
    let start = Instant::now();
    let scenario = workload.inputs(seed, tiny);
    let setup_len = inputs::setup_len(&scenario);
    ALLOC.reset_peak();
    let base_live = ALLOC.snapshot().live;
    let (wire, counts) = Wire::new(SimNetwork::new(SimNetworkConfig::default(), seed), counting);
    let config = ClusterConfig {
        // The counting pass of the small-heap workload affords the cluster's
        // own per-collection safety oracle; elsewhere it would dominate.
        safety_oracle: counting && workload == Workload::CrossSiteCycles,
        durability: if workload.durable() {
            DurabilityConfig::memory().with_checkpoint_every(256)
        } else {
            DurabilityConfig::off()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::with_transport(scenario.site_count(), config, wire, |site| {
        Probed::new(CausalCollector::new(site), None)
    });
    for step in &scenario.steps()[..setup_len] {
        apply(&mut cluster, step);
    }
    Prepared {
        cluster,
        counts,
        scenario,
        setup_len,
        base_live,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

fn apply(cluster: &mut SeqCluster, step: &Step) {
    match step {
        Step::Op(op) => cluster.execute(*op),
        Step::Settle => cluster.settle(),
        Step::Membership(ev) => cluster.execute_membership(*ev),
    }
}

/// The counts a deterministic run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Objects allocated.
    pub allocated: u64,
    /// Objects reclaimed.
    pub reclaimed: u64,
    /// Garbage left at the end.
    pub residual: u64,
    /// GGD verdicts applied.
    pub verdicts: u64,
    /// Control messages sent.
    pub control_msgs: u64,
    /// Mutator messages sent.
    pub mutator_msgs: u64,
}

impl Outcome {
    fn of(report: &RunReport) -> Outcome {
        Outcome {
            allocated: report.allocated,
            reclaimed: report.reclaimed,
            residual: report.residual_garbage,
            verdicts: report.verdicts,
            control_msgs: report.control_messages(),
            mutator_msgs: report.mutator_messages(),
        }
    }
}

/// Checks that no reachable object references an object that no longer
/// exists, i.e. nothing live was reclaimed.
fn check_no_dangling<'a>(heaps: impl Iterator<Item = &'a SiteHeap>) -> Result<(), String> {
    let heaps: BTreeMap<SiteId, &SiteHeap> = heaps.map(|h| (h.site(), h)).collect();
    let live = Oracle::reachable(heaps.values().copied());
    for addr in &live {
        let heap = heaps[&addr.site()];
        let Some(obj) = heap.object(addr.object()) else {
            continue;
        };
        for r in obj.refs() {
            let target = match r {
                ObjRef::Local(id) => GlobalAddr::from_parts(addr.site(), id),
                ObjRef::Remote(a) => a,
            };
            if !heaps
                .get(&target.site())
                .is_some_and(|h| h.contains(target.object()))
            {
                return Err(format!("live object {addr} references reclaimed {target}"));
            }
        }
    }
    Ok(())
}

/// The objects that exist but are unreachable from every local root. The
/// same judgement as `Oracle::garbage`, over dense per-site mark vectors
/// (object ids are small per-site indices), so it is cheap enough to run at
/// every settle boundary.
fn garbage(cluster: &SeqCluster) -> BTreeSet<GlobalAddr> {
    let heaps: Vec<&SiteHeap> = cluster.heaps().collect();
    let mut slots = vec![
        None;
        heaps
            .iter()
            .map(|h| h.site().index() as usize + 1)
            .max()
            .unwrap_or(0)
    ];
    for (i, h) in heaps.iter().enumerate() {
        slots[h.site().index() as usize] = Some(i);
    }
    let slot = |site: SiteId| slots.get(site.index() as usize).copied().flatten();
    let mut marks: Vec<Vec<bool>> = heaps
        .iter()
        .map(|h| {
            let top = h.iter().map(|o| o.id().index()).max().map_or(0, |m| m + 1);
            vec![false; top as usize]
        })
        .collect();
    let mut stack: Vec<GlobalAddr> = heaps
        .iter()
        .flat_map(|h| h.local_roots().map(|id| h.addr_of(id)))
        .collect();
    while let Some(addr) = stack.pop() {
        let Some(i) = slot(addr.site()) else { continue };
        let Some(obj) = heaps[i].object(addr.object()) else {
            continue;
        };
        let mark = &mut marks[i][addr.object().index() as usize];
        if *mark {
            continue;
        }
        *mark = true;
        stack.extend(
            obj.local_refs()
                .map(|id| GlobalAddr::from_parts(addr.site(), id)),
        );
        stack.extend(obj.remote_refs());
    }
    heaps
        .iter()
        .zip(&marks)
        .flat_map(|(h, m)| {
            h.iter()
                .filter(|o| !m[o.id().index() as usize])
                .map(|o| h.addr_of(o.id()))
        })
        .collect()
}

type HeapImage = Vec<(GlobalAddr, bool, bool, Vec<ObjRef>)>;

/// Every object of every site with its root flags and references.
fn heap_image(cluster: &SeqCluster) -> HeapImage {
    let mut image: HeapImage = cluster
        .heaps()
        .flat_map(|heap| {
            heap.iter().map(move |obj| {
                let id = obj.id();
                (
                    heap.addr_of(id),
                    heap.is_local_root(id),
                    heap.is_global_root(id),
                    obj.refs_vec(),
                )
            })
        })
        .collect();
    image.sort_by_key(|entry| entry.0);
    image
}

fn heap_totals(cluster: &SeqCluster) -> (u64, u64) {
    cluster.heaps().fold((0, 0), |(c, f), h| {
        (c + h.stats().collections, f + h.stats().collected)
    })
}

/// Store counters of interest: records, WAL bytes, checkpoints, replayed.
fn store_totals(cluster: &SeqCluster) -> [u64; 4] {
    let s = cluster.store_stats();
    [
        s.records_appended,
        s.wal_bytes_appended,
        s.checkpoints_installed,
        s.records_replayed,
    ]
}

/// Crashes and recovers every site in turn, timing each; the heaps must
/// come back exactly as they were.
fn restart_all(cluster: &mut SeqCluster) -> Result<Vec<f64>, String> {
    let before = heap_image(cluster);
    let sites: Vec<SiteId> = cluster.membership().iter().copied().collect();
    let mut times = Vec::with_capacity(sites.len());
    for site in sites {
        let start = Instant::now();
        trace::span(Layer::StoreRecover, || cluster.crash_and_recover(site));
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    if heap_image(cluster) != before {
        return Err("heaps differ from their pre-crash state after recovery".to_owned());
    }
    Ok(times)
}

/// One timed repetition of a sequential workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up time (inputs + construction + pre-population).
    pub setup_s: f64,
    /// Wall time of the measured phase, settles included.
    pub measured_s: f64,
    /// Mutator ops in the measured phase.
    pub ops: u64,
    /// Per-op `execute` times.
    pub op_us: Vec<f64>,
    /// Per-settle times.
    pub settle_ms: Vec<f64>,
    /// Per-site recovery times (durable workload).
    pub recover_ms: Vec<f64>,
    /// Peak live heap bytes above the pre-construction baseline.
    pub peak_live: u64,
    /// Allocations in the measured phase.
    pub allocations: u64,
    /// Bytes allocated in the measured phase.
    pub alloc_bytes: u64,
    /// Local collections and objects freed in the measured phase.
    pub heap: (u64, u64),
    /// Store counters: appended, WAL bytes and checkpoints in the measured
    /// phase, records replayed at restart.
    pub store: [u64; 4],
    /// Deterministic outcome at the end of the measured phase.
    pub outcome: Option<Outcome>,
    /// Spans, when traced.
    pub trace: Option<Trace>,
    /// `ParallelCluster` repetitions only.
    pub parallel: Option<ParallelStats>,
}

/// What one `ParallelCluster` repetition measured.
#[derive(Debug, Clone, Copy)]
pub struct ParallelStats {
    /// Wall time of the whole run.
    pub run_ms: f64,
    /// Collector busy time per worker (traced repetitions only).
    pub busy_ms_per_worker: f64,
    /// Peak bytes queued in the worker mailboxes.
    pub peak_queued_bytes: f64,
    /// Control bytes framed between workers.
    pub control_bytes: f64,
    /// Worker threads.
    pub workers: f64,
}

/// Runs one timed repetition of a sequential workload.
pub fn sequential_rep(
    workload: Workload,
    seed: u64,
    tiny: bool,
    traced: bool,
) -> Result<Rep, String> {
    let Prepared {
        mut cluster,
        scenario,
        setup_len,
        base_live,
        setup_s,
        ..
    } = prepare(workload, seed, tiny, false);
    let measured = &scenario.steps()[setup_len..];
    let heap_before = heap_totals(&cluster);
    let store_before = store_totals(&cluster);
    let alloc_before = ALLOC.snapshot();
    let mut rep = Rep {
        setup_s,
        ops: inputs::op_count(measured),
        ..Rep::default()
    };
    rep.op_us.reserve(rep.ops as usize);
    if traced {
        trace::start();
    }
    let mut recovered = Ok(Vec::new());
    trace::span(Layer::Workload, || {
        let start = Instant::now();
        for step in measured {
            let t = Instant::now();
            match step {
                Step::Settle => {
                    trace::span(Layer::SimSettle, || cluster.settle());
                    rep.settle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                _ => {
                    trace::span(Layer::SimExecute, || apply(&mut cluster, step));
                    rep.op_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        rep.measured_s = start.elapsed().as_secs_f64();
        rep.heap = heap_totals(&cluster);
        let store_after = store_totals(&cluster);
        rep.store = [
            store_after[0] - store_before[0],
            store_after[1] - store_before[1],
            store_after[2] - store_before[2],
            0,
        ];
        if workload.durable() {
            recovered = restart_all(&mut cluster);
        }
    });
    if traced {
        rep.trace = Some(trace::stop());
    }
    let alloc_after = ALLOC.snapshot();
    rep.peak_live = alloc_after.peak.saturating_sub(base_live);
    rep.allocations = alloc_after.allocations - alloc_before.allocations;
    rep.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
    rep.heap = (rep.heap.0 - heap_before.0, rep.heap.1 - heap_before.1);
    rep.recover_ms = recovered?;
    rep.store[3] = store_totals(&cluster)[3];
    check_no_dangling(cluster.heaps())?;
    rep.outcome = Some(Outcome::of(&cluster.report()));
    Ok(rep)
}

/// The untimed counting pass: exact wire bytes, reclamation lag, the
/// settle-boundary safety check and the outcome every timed run must match.
#[derive(Debug, Clone)]
pub struct Counted {
    /// Outcome at the end (restart excluded).
    pub outcome: Outcome,
    /// Wire counts over the measured phase.
    pub wire: WireCounts,
    /// Objects reclaimed in the measured phase.
    pub reclaimed: u64,
    /// Reclamation lag of each object reclaimed in the measured phase, in
    /// settles.
    pub lags: Vec<f64>,
    /// Every address reclaimed over the run.
    pub reclaimed_addrs: Vec<GlobalAddr>,
}

/// Runs the counting pass of a sequential workload (the parallel workload
/// counts on its sequential twin).
pub fn counting_pass(workload: Workload, seed: u64, tiny: bool) -> Result<Counted, String> {
    let Prepared {
        mut cluster,
        counts,
        scenario,
        setup_len,
        ..
    } = prepare(workload, seed, tiny, true);
    let wire_before = counts.get();
    let reclaimed_before = cluster.reclaimed_addrs().len() as u64;
    // Settle index at which each current garbage object was first seen.
    let mut first_seen: BTreeMap<GlobalAddr, u64> = BTreeMap::new();
    let mut lags = Vec::new();
    let mut boundary = 0;
    for step in &scenario.steps()[setup_len..] {
        if !matches!(step, Step::Settle) {
            apply(&mut cluster, step);
            continue;
        }
        boundary += 1;
        // A settle only delivers references and frees objects, so it can
        // never make a reachable object unreachable: whatever it frees must
        // already be garbage now.
        let garbage = garbage(&cluster);
        first_seen.retain(|addr, _| garbage.contains(addr));
        for addr in garbage {
            first_seen.entry(addr).or_insert(boundary);
        }
        let freed_before = cluster.reclaimed_addrs().len();
        cluster.settle();
        let freed = cluster.reclaimed_addrs().len() - freed_before;
        let reclaimed = cluster.reclaimed_addrs();
        let mut seen_freed = 0;
        first_seen.retain(|addr, first| {
            if reclaimed.contains(addr) {
                lags.push((boundary - *first + 1) as f64);
                seen_freed += 1;
                false
            } else {
                true
            }
        });
        if seen_freed != freed {
            return Err(format!(
                "settle {boundary} freed {freed} objects, only {seen_freed} of them garbage"
            ));
        }
    }
    let wire_after = counts.get();
    let report = cluster.report();
    if report.safety_violations != 0 {
        return Err(format!("{} safety violations", report.safety_violations));
    }
    if wire_after.control_msgs != report.control_messages()
        || wire_after.mutator_msgs != report.mutator_messages()
    {
        return Err("the transport wrapper and the network disagree on message counts".to_owned());
    }
    check_no_dangling(cluster.heaps())?;
    let outcome = Outcome::of(&report);
    if workload.durable() {
        restart_all(&mut cluster)?;
    }
    Ok(Counted {
        outcome,
        wire: WireCounts {
            control_msgs: wire_after.control_msgs - wire_before.control_msgs,
            mutator_msgs: wire_after.mutator_msgs - wire_before.mutator_msgs,
            control_bytes: wire_after.control_bytes - wire_before.control_bytes,
            mutator_bytes: wire_after.mutator_bytes - wire_before.mutator_bytes,
            peak_pending: wire_after.peak_pending,
        },
        reclaimed: cluster.reclaimed_addrs().len() as u64 - reclaimed_before,
        lags,
        reclaimed_addrs: cluster.reclaimed_addrs().iter().copied().collect(),
    })
}

/// Worker threads of `ParallelCluster`: two, or one on a single-core host.
pub fn parallel_workers() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2) as u32)
}

/// Runs one timed repetition on `ParallelCluster` and checks that it
/// reclaims exactly what the sequential run reclaimed.
pub fn parallel_rep(
    seed: u64,
    tiny: bool,
    traced: bool,
    expected: &Counted,
) -> Result<Rep, String> {
    let start = Instant::now();
    let scenario = Workload::ParallelChurn.inputs(seed, tiny);
    let setup_s = start.elapsed().as_secs_f64();
    let workers = parallel_workers();
    let busy = traced.then(|| Arc::new(Busy::default()));
    let factory_busy = busy.clone();
    let config = ClusterConfig {
        workers,
        safety_oracle: false,
        ..ClusterConfig::default()
    };
    ALLOC.reset_peak();
    let alloc_before = ALLOC.snapshot();
    if traced {
        trace::start();
    }
    let start = Instant::now();
    let (report, cluster) = trace::span(Layer::Workload, || {
        ParallelCluster::run_seeded(&scenario, config, move |site: SiteId| {
            Probed::new(CausalCollector::new(site), factory_busy.clone())
        })
    });
    let run_s = start.elapsed().as_secs_f64();
    let trace = traced.then(trace::stop);
    let alloc_after = ALLOC.snapshot();
    let ops = inputs::op_count(scenario.steps());
    let reclaimed: Vec<GlobalAddr> = cluster.reclaimed_addrs().iter().copied().collect();
    if reclaimed != expected.reclaimed_addrs || report.residual_garbage != expected.outcome.residual
    {
        return Err(format!(
            "parallel run reclaimed {} / left {} residual; sequential reclaimed {} / left {}",
            reclaimed.len(),
            report.residual_garbage,
            expected.reclaimed_addrs.len(),
            expected.outcome.residual
        ));
    }
    if report.allocated != expected.outcome.allocated {
        return Err("parallel run allocated a different number of objects".to_owned());
    }
    check_no_dangling(cluster.heaps())?;
    let busy_ms = busy.map_or(0.0, |b| b.ns() as f64 / 1e6);
    Ok(Rep {
        setup_s,
        measured_s: run_s,
        ops,
        peak_live: alloc_after.peak.saturating_sub(alloc_before.live),
        allocations: alloc_after.allocations - alloc_before.allocations,
        alloc_bytes: alloc_after.bytes - alloc_before.bytes,
        trace,
        parallel: Some(ParallelStats {
            run_ms: run_s * 1e3,
            busy_ms_per_worker: busy_ms / f64::from(workers),
            peak_queued_bytes: report.net.peak_queued_bytes() as f64,
            control_bytes: report.net.control_bytes_sent() as f64,
            workers: f64::from(workers),
        }),
        ..Rep::default()
    })
}
