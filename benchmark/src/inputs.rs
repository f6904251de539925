//! Workload inputs, generated by the benchmark's own code from the seed so
//! that a change to the program's generators cannot change what is measured.
//!
//! Every generated computation is legal: a site only sends or links objects
//! it can still reach, so no operation acts on garbage and no run can hand
//! out a dangling reference.

use ggd_mutator::{MutatorOp, ObjName, Scenario, Step};
use ggd_types::SiteId;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per workload by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }
}

fn site(i: usize) -> SiteId {
    SiteId::new(i as u32)
}

/// Shape of the churn workloads: trees under exported anchors, then mixed
/// mutator operations with a settle every `settle_every` operations.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Sites.
    pub sites: usize,
    /// Objects pre-populated before the first settle (roots and anchors
    /// included).
    pub objects: usize,
    /// Exported anchors per site; each roots one local tree.
    pub anchors: usize,
    /// Mutator operations after the first settle.
    pub ops: usize,
    /// Operations between settles.
    pub settle_every: usize,
}

/// Local-tree bookkeeping of the churn generator. Names are dense indices
/// (`Scenario::fresh_name` counts from zero), so plain vectors suffice.
struct Forest {
    alive: Vec<bool>,
    children: Vec<Vec<u32>>,
}

impl Forest {
    fn add(&mut self, name: ObjName) {
        let i = name.0 as usize;
        if self.alive.len() <= i {
            self.alive.resize(i + 1, false);
            self.children.resize(i + 1, Vec::new());
        }
        self.alive[i] = true;
    }

    fn alive(&self, name: u32) -> bool {
        self.alive[name as usize]
    }

    /// Marks `root` and everything under it unreachable (each object has
    /// exactly one local parent, so nothing else can still hold them
    /// locally; remote holders may, but the generator never uses them again).
    fn kill(&mut self, root: u32) {
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            self.alive[n as usize] = false;
            stack.append(&mut self.children[n as usize]);
        }
    }

    /// A live member of `pool` (index 0, the anchor, is always live);
    /// dead members met on the way are dropped from the pool.
    fn pick(&self, pool: &mut Vec<u32>, rng: &mut Rng) -> u32 {
        loop {
            let i = rng.below(pool.len());
            if self.alive(pool[i]) {
                return pool[i];
            }
            pool.swap_remove(i);
        }
    }
}

/// Index of a random entry of `links` whose child is still live; entries
/// with dead children are dropped on the way.
fn live_link(forest: &Forest, links: &mut Vec<(usize, u32, u32)>, rng: &mut Rng) -> Option<usize> {
    while !links.is_empty() {
        let i = rng.below(links.len());
        if forest.alive(links[i].2) {
            return Some(i);
        }
        links.swap_remove(i);
    }
    None
}

/// The churn scenario: roots hold only remote references (to the previous
/// site's anchors), so each operation dirties exactly one local tree.
pub fn churn(shape: &ChurnShape, seed: u64) -> Scenario {
    let sites = shape.sites;
    let mut rng = Rng::new(seed, 1);
    let mut s = Scenario::new(sites as u32);
    let mut forest = Forest {
        alive: Vec::new(),
        children: Vec::new(),
    };
    let alloc = |s: &mut Scenario, forest: &mut Forest, at: usize, root: bool| {
        let name = s.alloc(site(at), root);
        forest.add(name);
        name
    };

    let roots: Vec<ObjName> = (0..sites)
        .map(|i| alloc(&mut s, &mut forest, i, true))
        .collect();
    let mut pools: Vec<Vec<Vec<u32>>> = vec![Vec::new(); sites];
    for at in 0..sites {
        for _ in 0..shape.anchors {
            let anchor = alloc(&mut s, &mut forest, at, false);
            s.send_ref(site(at), roots[(at + 1) % sites], anchor);
            pools[at].push(vec![anchor.0]);
        }
    }
    let fill = shape.objects.saturating_sub(sites * (1 + shape.anchors));
    for i in 0..fill {
        let at = i % sites;
        let pool = rng.below(shape.anchors);
        let parent = forest.pick(&mut pools[at][pool], &mut rng);
        let child = alloc(&mut s, &mut forest, at, false);
        s.op(MutatorOp::LinkLocal {
            site: site(at),
            from: ObjName(parent),
            to: child,
        });
        forest.children[parent as usize].push(child.0);
        pools[at][pool].push(child.0);
    }
    s.settle();

    // Only links made during the churn are ever cut (or their child
    // cleared), so each cut frees a young subtree: the pre-populated trees
    // stay live and the garbage per operation has no heavy tail.
    let mut links: Vec<(usize, u32, u32)> = Vec::new();
    // Cross-site references become removable once a settle delivered them.
    let mut cross_sent: Vec<(usize, u32, u32)> = Vec::new();
    let mut cross_held: Vec<(usize, u32, u32)> = Vec::new();
    for op in 0..shape.ops {
        let at = rng.below(sites);
        let pool = rng.below(shape.anchors);
        match rng.below(8) {
            0..=2 => {
                let parent = forest.pick(&mut pools[at][pool], &mut rng);
                let child = alloc(&mut s, &mut forest, at, false);
                s.op(MutatorOp::LinkLocal {
                    site: site(at),
                    from: ObjName(parent),
                    to: child,
                });
                forest.children[parent as usize].push(child.0);
                links.push((at, parent, child.0));
                pools[at][pool].push(child.0);
            }
            3..=4 => {
                let target = forest.pick(&mut pools[at][pool], &mut rng);
                let other = (at + 1 + rng.below(sites - 1)) % sites;
                let recipient = pools[other][rng.below(shape.anchors)][0];
                s.send_ref(site(at), ObjName(recipient), ObjName(target));
                cross_sent.push((other, recipient, target));
            }
            5 => {
                if let Some(i) = live_link(&forest, &mut links, &mut rng) {
                    let (at, parent, child) = links.swap_remove(i);
                    s.op(MutatorOp::Unlink {
                        site: site(at),
                        from: ObjName(parent),
                        to: ObjName(child),
                    });
                    forest.children[parent as usize].retain(|&c| c != child);
                    forest.kill(child);
                }
            }
            6 => {
                if !cross_held.is_empty() {
                    let (at, from, to) = cross_held.swap_remove(rng.below(cross_held.len()));
                    s.op(MutatorOp::Unlink {
                        site: site(at),
                        from: ObjName(from),
                        to: ObjName(to),
                    });
                }
            }
            _ => {
                if let Some(i) = live_link(&forest, &mut links, &mut rng) {
                    let (at, _, victim) = links[i];
                    s.op(MutatorOp::ClearRefs {
                        site: site(at),
                        name: ObjName(victim),
                    });
                    let kids = std::mem::take(&mut forest.children[victim as usize]);
                    for kid in kids {
                        forest.kill(kid);
                    }
                }
            }
        }
        if op % shape.settle_every == shape.settle_every - 1 {
            s.settle();
            cross_held.append(&mut cross_sent);
        }
    }
    s.settle();
    s
}

/// Shape of the cycles workload: tiny local heaps and hubs, then many
/// disconnected inter-site garbage rings.
#[derive(Debug, Clone, Copy)]
pub struct RingShape {
    /// Sites.
    pub sites: usize,
    /// Live local objects per site, in a tree under the site's root.
    pub local: usize,
    /// Garbage rings built and disconnected.
    pub rings: usize,
    /// Most sites a ring spans (at least two).
    pub max_span: usize,
    /// Rings per settle.
    pub batch: usize,
    /// Third-party exchange hubs.
    pub hubs: usize,
    /// Spokes per hub.
    pub spokes: usize,
}

/// The cycles scenario. Each ring hangs off its first member site's root
/// until a settle has delivered every link, then the root lets go and the
/// ring is garbage that only a comprehensive collector can find. Hubs
/// meanwhile lend a remote reference to one of their spokes per settle and
/// take it back after the next (third-party sends, lazy rule 2).
///
/// Ring members themselves are never relayed through a hub: relaying them
/// makes the causal collector reclaim objects a spoke still holds (its own
/// safety oracle reports the violations), which no timed run could pass.
pub fn rings(shape: &RingShape, seed: u64) -> Scenario {
    let sites = shape.sites;
    let mut rng = Rng::new(seed, 2);
    let mut s = Scenario::new(sites as u32);
    let roots: Vec<ObjName> = (0..sites).map(|i| s.alloc(site(i), true)).collect();
    for (at, &root) in roots.iter().enumerate() {
        let mut tree = vec![root];
        for _ in 0..shape.local {
            let parent = tree[rng.below(tree.len())];
            let child = s.alloc(site(at), false);
            s.op(MutatorOp::LinkLocal {
                site: site(at),
                from: parent,
                to: child,
            });
            tree.push(child);
        }
    }
    let spokes = shape.spokes.min(sites - 2);
    let mut hubs = Vec::new();
    for h in 0..shape.hubs {
        let hub_site = h % sites;
        let target_site = (hub_site + 1) % sites;
        let hub = s.alloc(site(hub_site), true);
        let target = s.alloc(site(target_site), false);
        s.send_ref(site(target_site), hub, target);
        let spoke_names: Vec<(usize, ObjName)> = (0..spokes)
            .map(|k| {
                let at = (hub_site + 2 + k) % sites;
                let spoke = s.alloc(site(at), true);
                s.send_ref(site(at), hub, spoke);
                (at, spoke)
            })
            .collect();
        hubs.push((hub_site, target, spoke_names));
    }
    s.settle();

    let mut lent: Vec<(usize, ObjName, ObjName)> = Vec::new();
    let mut built = 0;
    while built < shape.rings {
        let mut heads = Vec::new();
        for _ in 0..shape.batch.min(shape.rings - built) {
            let span = 2 + rng.below(shape.max_span.min(sites) - 1);
            let base = rng.below(sites);
            let members: Vec<(usize, ObjName)> = (0..span)
                .map(|k| {
                    let at = (base + k) % sites;
                    (at, s.alloc(site(at), false))
                })
                .collect();
            s.send_ref(site(members[0].0), roots[members[0].0], members[0].1);
            for k in 0..span {
                let (_, from) = members[k];
                let (at, to) = members[(k + 1) % span];
                s.send_ref(site(at), from, to);
            }
            heads.push(members[0]);
        }
        built += heads.len();
        for (at, spoke, target) in lent.drain(..) {
            s.op(MutatorOp::Unlink {
                site: site(at),
                from: spoke,
                to: target,
            });
        }
        if spokes > 0 {
            for (hub_site, target, spoke_names) in &hubs {
                let (at, spoke) = spoke_names[rng.below(spoke_names.len())];
                s.send_ref(site(*hub_site), spoke, *target);
                lent.push((at, spoke, *target));
            }
        }
        s.settle();
        for (at, head) in heads {
            s.op(MutatorOp::Unlink {
                site: site(at),
                from: roots[at],
                to: head,
            });
        }
    }
    s.settle();
    s
}

/// Number of leading steps that form the set-up: everything up to and
/// including the first settle.
pub fn setup_len(scenario: &Scenario) -> usize {
    scenario
        .steps()
        .iter()
        .position(|step| matches!(step, Step::Settle))
        .map_or(0, |i| i + 1)
}

/// Mutator operations among `steps`.
pub fn op_count(steps: &[Step]) -> u64 {
    steps.iter().filter(|s| matches!(s, Step::Op(_))).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let shape = ChurnShape {
            sites: 4,
            objects: 200,
            anchors: 2,
            ops: 300,
            settle_every: 16,
        };
        assert_eq!(churn(&shape, 7), churn(&shape, 7));
        assert_ne!(churn(&shape, 7), churn(&shape, 8));
        let ring = RingShape {
            sites: 4,
            local: 8,
            rings: 30,
            max_span: 3,
            batch: 5,
            hubs: 2,
            spokes: 2,
        };
        assert_eq!(rings(&ring, 3), rings(&ring, 3));
    }

    #[test]
    fn setup_ends_at_the_first_settle() {
        let shape = ChurnShape {
            sites: 3,
            objects: 30,
            anchors: 1,
            ops: 10,
            settle_every: 5,
        };
        let s = churn(&shape, 1);
        let n = setup_len(&s);
        assert!(matches!(s.steps()[n - 1], Step::Settle));
        // 3 roots, 3 anchors with their exports, 24 fillers with their links.
        assert_eq!(op_count(&s.steps()[..n]), 3 + 3 * 2 + 24 * 2);
    }
}
