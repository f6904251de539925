//! Behaviour fingerprint of the sequential driver.
//!
//! Runs a fixed slice of the three seed-7 explorer corpora (classic, crash
//! and membership) through [`Cluster::run_seeded`] under all three
//! collectors, and folds every run's observable outcome — the
//! `RunReport` (`Debug` form), the reclaimed and residual address sets,
//! the recovery count, the store counters and the departed/evicted views —
//! into one FNV-1a hash. The expected constant was computed before the
//! drivers were refactored onto a shared core; any change to skip
//! analysis, crash scheduling, membership sequencing, recovery catch-up or
//! the post-run views moves it. A refactor that keeps behaviour keeps the
//! constant.

use ggd_explore::{corpus_triple, crash_corpus_triple, membership_corpus_triple, Triple};
use ggd_mutator::generator::{ScenarioSpec, SegmentWeights};
use ggd_sim::{CausalCollector, Cluster, Collector, RefListingCollector, TracingCollector};
use ggd_types::SiteId;

/// A corpus: the `index`-th triple for a master seed.
type Corpus = fn(u64, u32, &SegmentWeights) -> (ScenarioSpec, Triple);

/// Triples taken from each corpus.
const PER_CORPUS: u32 = 16;

/// The fingerprint computed at the commit before the driver refactor.
const EXPECTED: u64 = 0x4926_074f_6783_caf3;

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn feed_debug(&mut self, value: &impl std::fmt::Debug) {
        self.feed(format!("{value:?}").as_bytes());
        // Field separator, so adjacent values cannot run together.
        self.feed(&[0xff]);
    }
}

fn fold_run<C: Collector>(
    hash: &mut Fnv,
    triple: &Triple,
    factory: impl Fn(SiteId) -> C + 'static,
) {
    let (report, cluster) = Cluster::run_seeded(&triple.scenario, triple.config(), factory);
    hash.feed_debug(&report);
    hash.feed_debug(cluster.reclaimed_addrs());
    hash.feed_debug(&cluster.garbage_addrs());
    hash.feed_debug(&cluster.recoveries());
    hash.feed_debug(&cluster.store_stats());
    hash.feed_debug(&cluster.evicted_sites().collect::<Vec<_>>());
    for &departed in cluster.departed_sites() {
        hash.feed_debug(&(departed, cluster.sites_mentioning(departed)));
    }
}

#[test]
fn sequential_driver_fingerprint_is_pinned() {
    let weights = SegmentWeights::default();
    let corpora: [Corpus; 3] = [corpus_triple, crash_corpus_triple, membership_corpus_triple];
    let mut hash = Fnv::new();
    for corpus in corpora {
        for index in 0..PER_CORPUS {
            let (_, triple) = corpus(7, index, &weights);
            let sites = triple.scenario.site_count();
            fold_run(&mut hash, &triple, CausalCollector::new);
            fold_run(&mut hash, &triple, TracingCollector::factory(sites));
            fold_run(&mut hash, &triple, RefListingCollector::new);
        }
    }
    assert_eq!(
        hash.0, EXPECTED,
        "the sequential driver's observable behaviour changed (fingerprint {:#018x})",
        hash.0
    );
}
