//! The local mark-sweep collector and its statistics.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

use ggd_types::{GlobalAddr, ObjectId};

use crate::site_heap::SiteHeap;

/// Cumulative per-heap statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HeapStats {
    /// Objects allocated over the heap's lifetime.
    pub allocated: u64,
    /// Objects freed by local collections.
    pub collected: u64,
    /// Local collections performed.
    pub collections: u64,
}

impl fmt::Display for HeapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocated={} collected={} collections={}",
            self.allocated, self.collected, self.collections
        )
    }
}

/// Result of one local mark-sweep collection.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CollectionOutcome {
    /// Objects freed by this collection.
    pub freed: BTreeSet<ObjectId>,
    /// Remote references (proxies) that were only held by freed objects and
    /// therefore no longer exist on this site at all. These are the events
    /// that trigger the paper's *edge-destruction* control messages (§3.4:
    /// "an edge-destruction control message is sent by the local garbage
    /// collector when … the proxy for that remote object is collected").
    pub dropped_proxies: BTreeSet<GlobalAddr>,
    /// Remote references that were held by freed objects but survive because
    /// some live object still holds them too.
    pub surviving_proxies: BTreeSet<GlobalAddr>,
    /// Number of objects that survived the collection.
    pub live: usize,
}

impl CollectionOutcome {
    /// True when the collection freed nothing.
    pub fn is_noop(&self) -> bool {
        self.freed.is_empty()
    }
}

impl fmt::Display for CollectionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "freed={} live={} dropped_proxies={}",
            self.freed.len(),
            self.live,
            self.dropped_proxies.len()
        )
    }
}

impl SiteHeap {
    /// Runs a stop-the-world mark-sweep collection over this site.
    ///
    /// The root set is the union of the designated local roots and the
    /// current global root set, exactly as prescribed by §2.1 of the paper.
    /// Objects not reachable from that set are freed; remote references held
    /// only by freed objects are reported as dropped proxies so that the GGD
    /// layer can emit the corresponding edge-destruction control messages.
    ///
    /// Marking runs over the arena with the heap's reusable scratch buffers,
    /// so a collection allocates only for its outcome report.
    ///
    /// A collection that provably frees nothing skips the sweep: no object
    /// was orphaned since the last collection, and a walk over the objects
    /// allocated since then finds each of them live (see DESIGN.md,
    /// "Collection skipping"). The outcome and statistics are exactly those
    /// the sweep would have produced.
    pub fn collect(&mut self) -> CollectionOutcome {
        if !self.begin_collection() {
            debug_assert!(
                self.would_collect().is_empty(),
                "skipped a collection that would free objects"
            );
            self.stats_mut().collections += 1;
            return CollectionOutcome {
                live: self.len(),
                ..CollectionOutcome::default()
            };
        }
        let mut freed = BTreeSet::new();
        let mut freed_slots: Vec<u32> = Vec::new();
        let mut freed_remote: BTreeSet<GlobalAddr> = BTreeSet::new();
        {
            let (arena, scratch, local_roots, global_roots) = self.traversal_parts();
            arena.mark_reachable(
                scratch,
                local_roots.iter().chain(global_roots.iter()).copied(),
                None,
            );
            for slot in arena.live_slots() {
                if !scratch.is_marked(slot) {
                    freed.insert(arena.id_at(slot));
                    freed_slots.push(slot);
                    for addr in arena.refs(slot).filter_map(|r| r.as_remote()) {
                        freed_remote.insert(addr);
                    }
                }
            }
        }

        // The delta tracker drops the freed objects' reverse edges while
        // their slots are still readable. Freed objects were unreachable
        // from every snapshot source, so no surviving vertex's reachable
        // set changes — no dirt is recorded for survivors.
        self.note_collected_slots(&freed_slots);
        self.free_slot_list(&freed_slots);
        self.drop_roots_of_collected(&freed);

        // A proxy is dropped only when no live object still holds it.
        let mut dropped_proxies = BTreeSet::new();
        let mut surviving_proxies = BTreeSet::new();
        if !freed_remote.is_empty() {
            let still_held = self.remote_targets();
            for addr in freed_remote {
                if still_held.contains(&addr) {
                    surviving_proxies.insert(addr);
                } else {
                    dropped_proxies.insert(addr);
                }
            }
        }

        let live = self.len();
        let stats = self.stats_mut();
        stats.collections += 1;
        stats.collected += freed.len() as u64;

        CollectionOutcome {
            freed,
            dropped_proxies,
            surviving_proxies,
            live,
        }
    }

    /// Computes, without mutating the heap, the set of objects a collection
    /// run right now would free. Used by tests and by the simulator's oracle.
    pub fn would_collect(&self) -> BTreeSet<ObjectId> {
        let marked = self.reachable_from(self.roots_for_local_gc());
        self.iter()
            .map(|obj| obj.id())
            .filter(|id| !marked.contains(id))
            .collect()
    }

    /// The identities of objects currently reachable from the local root set
    /// alone (ignoring global roots). Global roots in this set belong to the
    /// site's *actual* root set no matter what GGD decides.
    pub fn locally_rooted(&self) -> BTreeSet<ObjectId> {
        self.reachable_from(self.local_root_set().iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjRef;
    use ggd_types::SiteId;

    fn heap() -> SiteHeap {
        SiteHeap::new(SiteId::new(0))
    }

    #[test]
    fn collects_unreachable_objects() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let kept = h.alloc();
        let garbage = h.alloc();
        h.add_ref(root, ObjRef::Local(kept)).unwrap();
        h.add_ref(garbage, ObjRef::Local(kept)).unwrap();

        let outcome = h.collect();
        assert_eq!(outcome.freed, BTreeSet::from([garbage]));
        assert_eq!(outcome.live, 2);
        assert!(!outcome.is_noop());
        assert!(h.contains(kept));
        assert!(!h.contains(garbage));
        assert_eq!(h.stats().collected, 1);
        assert_eq!(h.stats().collections, 1);
    }

    #[test]
    fn global_roots_keep_objects_alive() {
        let mut h = heap();
        let exported = h.alloc();
        let child = h.alloc();
        h.add_ref(exported, ObjRef::Local(child)).unwrap();
        h.register_global_root(exported).unwrap();

        let outcome = h.collect();
        assert!(outcome.is_noop());

        // Once GGD removes it from the global root set it becomes garbage.
        h.unregister_global_root(exported);
        let outcome = h.collect();
        assert_eq!(outcome.freed.len(), 2);
        assert_eq!(outcome.live, 0);
    }

    #[test]
    fn local_cycles_are_collected() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let a = h.alloc();
        let b = h.alloc();
        h.add_ref(a, ObjRef::Local(b)).unwrap();
        h.add_ref(b, ObjRef::Local(a)).unwrap();
        h.add_ref(root, ObjRef::Local(a)).unwrap();

        assert!(h.collect().is_noop());
        h.remove_ref(root, ObjRef::Local(a)).unwrap();
        let outcome = h.collect();
        assert_eq!(outcome.freed, BTreeSet::from([a, b]));
    }

    #[test]
    fn dropped_proxies_are_reported_only_when_last_holder_dies() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let dying = h.alloc();
        let surviving = h.alloc();
        let shared = GlobalAddr::new(5, 1);
        let exclusive = GlobalAddr::new(5, 2);
        h.add_ref(root, ObjRef::Local(surviving)).unwrap();
        h.add_ref(surviving, ObjRef::Remote(shared)).unwrap();
        h.add_ref(dying, ObjRef::Remote(shared)).unwrap();
        h.add_ref(dying, ObjRef::Remote(exclusive)).unwrap();

        let outcome = h.collect();
        assert_eq!(outcome.freed, BTreeSet::from([dying]));
        assert_eq!(outcome.dropped_proxies, BTreeSet::from([exclusive]));
        assert_eq!(outcome.surviving_proxies, BTreeSet::from([shared]));
    }

    #[test]
    fn would_collect_is_a_dry_run() {
        let mut h = heap();
        let _root = h.alloc_local_root();
        let garbage = h.alloc();
        assert_eq!(h.would_collect(), BTreeSet::from([garbage]));
        assert!(h.contains(garbage));
    }

    #[test]
    fn locally_rooted_ignores_global_roots() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let via_root = h.alloc();
        let via_global = h.alloc();
        h.add_ref(root, ObjRef::Local(via_root)).unwrap();
        h.register_global_root(via_global).unwrap();
        let rooted = h.locally_rooted();
        assert!(rooted.contains(&root));
        assert!(rooted.contains(&via_root));
        assert!(!rooted.contains(&via_global));
    }

    #[test]
    fn stats_display_is_nonempty() {
        assert!(!HeapStats::default().to_string().is_empty());
        assert!(!CollectionOutcome::default().to_string().is_empty());
    }

    /// A heap whose delta tracker is active and whose flag is down: a local
    /// root holding `old`, both past their first collection.
    fn clean_tracked() -> (SiteHeap, ObjectId, ObjectId) {
        let mut h = heap();
        let root = h.alloc_local_root();
        let old = h.alloc();
        h.add_ref(root, ObjRef::Local(old)).unwrap();
        h.take_delta();
        assert!(h.collect().is_noop());
        assert!(!h.may_have_garbage());
        (h, root, old)
    }

    #[test]
    fn clean_heap_skips_with_the_outcome_of_a_sweep() {
        let (mut h, _, _) = clean_tracked();
        let outcome = h.collect();
        assert_eq!(
            outcome,
            CollectionOutcome {
                live: 2,
                ..Default::default()
            }
        );
        assert_eq!(h.stats().collections, 2);
        assert_eq!(h.stats().collected, 0);
    }

    #[test]
    fn unlink_raises_the_flag() {
        let (mut h, root, old) = clean_tracked();
        // A remote unlink cannot orphan a local object.
        h.add_ref(old, ObjRef::Remote(GlobalAddr::new(4, 4)))
            .unwrap();
        h.remove_ref(old, ObjRef::Remote(GlobalAddr::new(4, 4)))
            .unwrap();
        assert!(!h.may_have_garbage());
        // Nor can an unlink that finds no matching reference.
        assert!(!h.remove_ref(old, ObjRef::Local(root)).unwrap());
        assert!(!h.may_have_garbage());
        h.remove_ref(root, ObjRef::Local(old)).unwrap();
        assert!(h.may_have_garbage());
        assert_eq!(h.collect().freed, BTreeSet::from([old]));
        assert!(!h.may_have_garbage());
    }

    #[test]
    fn clear_refs_raises_the_flag() {
        let (mut h, root, old) = clean_tracked();
        h.clear_refs(root).unwrap();
        assert!(h.may_have_garbage());
        assert_eq!(h.collect().freed, BTreeSet::from([old]));
    }

    #[test]
    fn local_root_removal_raises_the_flag() {
        let (mut h, root, old) = clean_tracked();
        h.remove_local_root(root);
        assert!(h.may_have_garbage());
        assert_eq!(h.collect().freed, BTreeSet::from([root, old]));
    }

    #[test]
    fn unregister_raises_the_flag() {
        let (mut h, _, _) = clean_tracked();
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        assert!(h.collect().is_noop());
        assert!(!h.may_have_garbage());
        h.unregister_global_root(exported);
        assert!(h.may_have_garbage());
        assert_eq!(h.collect().freed, BTreeSet::from([exported]));
    }

    #[test]
    fn restored_heap_starts_raised() {
        let (mut h, root, old) = clean_tracked();
        h.remove_ref(root, ObjRef::Local(old)).unwrap();
        let mut back = SiteHeap::from_image(&h.image());
        assert!(back.may_have_garbage());
        assert_eq!(back.collect().freed, BTreeSet::from([old]));
        assert!(!back.may_have_garbage());
    }

    #[test]
    fn alloc_without_tracker_raises_the_flag() {
        let mut h = heap();
        let _root = h.alloc_local_root();
        assert!(h.collect().is_noop());
        assert!(!h.may_have_garbage());
        let garbage = h.alloc();
        assert!(h.may_have_garbage());
        assert_eq!(h.collect().freed, BTreeSet::from([garbage]));
    }

    #[test]
    fn young_chain_hung_off_an_old_parent_survives_the_skip() {
        let (mut h, root, old) = clean_tracked();
        let a = h.alloc();
        let b = h.alloc();
        let c = h.alloc();
        // Linked deepest-first, so the walk must follow young edges.
        h.add_ref(b, ObjRef::Local(c)).unwrap();
        h.add_ref(a, ObjRef::Local(b)).unwrap();
        h.add_ref(c, ObjRef::Local(a)).unwrap();
        h.add_ref(old, ObjRef::Local(a)).unwrap();
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        let rooted = h.alloc_local_root();
        assert!(h.may_have_garbage());
        let outcome = h.collect();
        assert_eq!(
            outcome,
            CollectionOutcome {
                live: 7,
                ..Default::default()
            }
        );
        assert!(!h.may_have_garbage());
        // Once old, the chain is freed by the sweep its unlink forces.
        h.remove_ref(root, ObjRef::Local(old)).unwrap();
        assert_eq!(h.collect().freed, BTreeSet::from([old, a, b, c]));
        assert!(h.contains(exported) && h.contains(rooted));
    }

    #[test]
    fn unlinked_young_allocs_are_still_freed() {
        let (mut h, root, old) = clean_tracked();
        let lone = h.alloc();
        // A young cycle, one end pointing at an old object: neither is
        // anchored, since only predecessors count.
        let x = h.alloc();
        let y = h.alloc();
        h.add_ref(x, ObjRef::Local(y)).unwrap();
        h.add_ref(y, ObjRef::Local(x)).unwrap();
        h.add_ref(y, ObjRef::Local(old)).unwrap();
        let kept = h.alloc();
        h.add_ref(root, ObjRef::Local(kept)).unwrap();
        let outcome = h.collect();
        assert_eq!(outcome.freed, BTreeSet::from([lone, x, y]));
        assert_eq!(outcome.live, 3);
        assert!(!h.may_have_garbage());
        assert!(h.collect().is_noop());
    }

    #[test]
    fn collecting_empty_heap_is_noop() {
        let mut h = heap();
        let outcome = h.collect();
        assert!(outcome.is_noop());
        assert_eq!(outcome.live, 0);
    }
}
