//! Wide (BVH8) nodes: the layout every radius query walks.
//!
//! A binary tree tests one AABB per step — fundamentally scalar work.
//! Collapsing the Karras tree into 8-wide nodes lets one
//! [`fdbscan_geom::simd::classify_lane_boxes`] call test all children of
//! a node at once (rejection *and* containment masks in the same pass),
//! and turns small subtrees into contiguous *leaf runs* scanned by the
//! lane kernels — the batched-node idea RT-DBSCAN maps onto RT-core
//! hardware, expressed here through the CPU's vector lanes.
//!
//! The wide layout is **derived** from the finished binary tree on the
//! host after every build and snapshot restore (no extra device launch;
//! the build stays three kernels). The binary arrays stay authoritative:
//! snapshots serialize only them, and the test-only stack reference
//! walks them.
//!
//! # Layout
//!
//! Each wide node stores its children as dimension-major corner lanes
//! (`lo[d][lane]`, `hi[d][lane]`) plus a per-lane link and sorted-leaf
//! range. Every child of a wide node is some binary subtree, so its
//! sorted-leaf range is contiguous — the property that keeps the index
//! mask (paper Fig. 1) and the containment fast path working unchanged:
//! a contained lane emits its whole range, a masked lane compares one
//! `u32`. Unfilled lanes hold inverted boxes (`lo = +inf`,
//! `hi = -inf`) that self-reject in the lane kernel, so no per-lane
//! occupancy branch is needed before the arithmetic.
//!
//! # Collapse
//!
//! Starting from the binary root's two children, the child covering the
//! most leaves is repeatedly replaced by its own two children until the
//! node has 8 slots. Slots that are single leaves or small subtrees
//! (≤ `RUN_THRESHOLD` = 16 leaves) become leaf runs; larger subtrees
//! become child wide nodes, processed iteratively (no recursion, so
//! degenerate spine-shaped trees cannot overflow the host stack).

use std::mem::MaybeUninit;
use std::ops::ControlFlow;

use fdbscan_geom::simd::{self, LANES};
use fdbscan_geom::Point;

use crate::node::{NodeRef, LEAF_FLAG};
use crate::traverse::QueryStats;
use crate::Bvh;

/// Branching factor of the wide layout — one SIMD lane per child.
pub const WIDTH: usize = LANES;

/// Subtrees at or below this many leaves flatten into a leaf run
/// scanned by the lane kernels (at most two 8-lane batches) instead of
/// descending further: below this size the batched scan is cheaper than
/// more node tests, and the run shares the binary tree's sorted SoA
/// corner arrays so no leaf data is duplicated.
pub(crate) const RUN_THRESHOLD: u32 = 16;

/// Unfilled-lane sentinel for [`WideNode::child`]. Has the leaf flag
/// bit set but an index outside the 31-bit primitive range, so it can
/// never collide with a real leaf-run link.
const EMPTY: u32 = u32::MAX;

/// One 8-wide node: SoA child corners plus per-lane links.
#[derive(Debug, Clone, PartialEq)]
pub struct WideNode<const D: usize> {
    /// Child lower corners, dimension-major lanes (`lo[d][lane]`).
    pub lo: [[f32; WIDTH]; D],
    /// Child upper corners, dimension-major lanes.
    pub hi: [[f32; WIDTH]; D],
    /// Per-lane link: index of the child wide node, or (leaf flag set)
    /// a leaf run covering the lane's sorted range, or `u32::MAX` (empty).
    pub child: [u32; WIDTH],
    /// Sorted-leaf range `[first, last]` covered by each lane.
    pub ranges: [[u32; 2]; WIDTH],
}

impl<const D: usize> WideNode<D> {
    fn empty() -> Self {
        Self {
            lo: [[f32::INFINITY; WIDTH]; D],
            hi: [[f32::NEG_INFINITY; WIDTH]; D],
            child: [EMPTY; WIDTH],
            ranges: [[0; 2]; WIDTH],
        }
    }
}

/// The derived wide layout of a [`Bvh`]: wide nodes in DFS order, node
/// 0 collapsing the binary root. Empty for trees with fewer than two
/// leaves (those are fully handled by the traversal's root/leaf
/// pre-checks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WideBvh<const D: usize> {
    pub(crate) nodes: Vec<WideNode<D>>,
}

impl<const D: usize> WideBvh<D> {
    /// Number of wide nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate memory footprint of the wide layout in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<WideNode<D>>()
    }
}

/// Collapses the finished binary tree into the wide layout (empty below
/// two leaves). Host-side and allocation-only (plain `Vec`s, no arena
/// buffers, no launches).
pub(crate) fn collapse<const D: usize>(bvh: &Bvh<D>) -> WideBvh<D> {
    if bvh.len() < 2 {
        return WideBvh::default();
    }
    let leaf_count = |r: NodeRef| -> u32 {
        if r.is_leaf() {
            1
        } else {
            let range = bvh.ranges[r.index() as usize];
            range[1] - range[0] + 1
        }
    };
    let first_pos = |r: NodeRef| -> u32 {
        if r.is_leaf() {
            r.index()
        } else {
            bvh.ranges[r.index() as usize][0]
        }
    };

    let mut nodes = vec![WideNode::empty()];
    // (binary internal node to collapse, wide slot reserved for it).
    let mut work: Vec<(u32, usize)> = vec![(0, 0)];
    while let Some((bin, widx)) = work.pop() {
        // Greedy expansion: always split the child covering the most
        // leaves, so heavy subtrees get lane-parallel siblings first.
        let mut slots: Vec<NodeRef> = bvh.children[bin as usize].to_vec();
        while slots.len() < WIDTH {
            let Some((si, _)) = slots
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, r)| !r.is_leaf())
                .max_by_key(|&(_, r)| leaf_count(r))
            else {
                break; // all slots are leaves
            };
            let expanded = slots.swap_remove(si);
            slots.extend(bvh.children[expanded.index() as usize]);
        }
        // Lanes in ascending sorted-leaf order, so the masked cutoff
        // and the emit order both run low-to-high.
        slots.sort_by_key(|&r| first_pos(r));

        let mut node = WideNode::empty();
        for (l, &slot) in slots.iter().enumerate() {
            let (bounds, range) = if slot.is_leaf() {
                let pos = slot.index();
                (&bvh.leaf_bounds[pos as usize], [pos, pos])
            } else {
                let i = slot.index() as usize;
                (&bvh.internal_bounds[i], bvh.ranges[i])
            };
            for d in 0..D {
                node.lo[d][l] = bounds.min[d];
                node.hi[d][l] = bounds.max[d];
            }
            node.ranges[l] = range;
            if slot.is_leaf() || leaf_count(slot) <= RUN_THRESHOLD {
                node.child[l] = range[0] | LEAF_FLAG;
            } else {
                let child_idx = nodes.len();
                nodes.push(WideNode::empty());
                node.child[l] = child_idx as u32;
                work.push((slot.index(), child_idx));
            }
        }
        nodes[widx] = node;
    }
    WideBvh { nodes }
}

impl<const D: usize> Bvh<D> {
    /// The traversal body: called by [`Bvh::for_each_in_radius_flagged`]
    /// after the root pre-checks (mask, rejection, containment), with the
    /// same callback/cutoff contract. One `classify_lane_boxes` call tests
    /// all children of a node; contained lanes emit their sorted range,
    /// leaf-run lanes batch-scan their SoA corners, surviving internal
    /// lanes descend.
    ///
    /// Callbacks fire in strictly ascending sorted-leaf order: lanes are
    /// sorted by range, and surviving lanes are resolved low-to-high via
    /// one LIFO action stack, so lane `l`'s whole subtree fires before
    /// lane `l + 1` touches anything. This is load-bearing: border
    /// claims are first-writer-wins, so a fixed hit order is what makes
    /// labels on the sequential engine reproducible.
    ///
    /// Work accounting: `nodes_visited` counts batched operations (wide
    /// nodes plus leaf lane batches — each one SIMD-wide unit of work),
    /// `wide_nodes_visited` the wide nodes alone, and `wide_leaf_lanes`
    /// the 8-wide batches spent on leaf runs.
    pub(crate) fn wide_walk<F>(
        &self,
        center: &Point<D>,
        eps_sq: f32,
        cutoff: u32,
        stats: &mut QueryStats,
        callback: &mut F,
    ) where
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        /// One deferred unit of traversal, in sorted-leaf order on the
        /// stack: emit a contained range, scan a leaf run, or classify
        /// a child wide node.
        #[derive(Clone, Copy)]
        enum Action {
            Emit([u32; 2]),
            Scan([u32; 2]),
            Descend(u32),
        }
        // Depth bound: wide depth is at most the binary tree's, which is
        // ≤ 96 (each binary descent lengthens the common prefix of the
        // augmented 96-bit `code ## index` keys), and each wide level
        // parks at most WIDTH - 1 sibling actions, so at most
        // 96 * 7 + 1 = 673 slots are ever live.
        const STACK_DEPTH: usize = 1024;
        // Left uninitialised: zero-filling these ~12 KB on every query
        // cost 10–50 % of a whole clustering call in the layout sweep
        // (DESIGN.md, "Traversal & memory layout"). Only slots below
        // `top` are read.
        let mut stack = [MaybeUninit::<Action>::uninit(); STACK_DEPTH];
        stack[0].write(Action::Descend(0));
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            // SAFETY: every slot below `top` was written by a push (or
            // the seed above) before `top` moved past it.
            match unsafe { stack[top].assume_init() } {
                Action::Emit(range) => {
                    // Lane was contained: accept its whole range with
                    // no per-leaf work.
                    if self.emit_range(range[0], range[1], cutoff, stats, callback) {
                        return;
                    }
                }
                Action::Scan(range) => {
                    if self.scan_run(
                        range[0].max(cutoff),
                        range[1],
                        center,
                        eps_sq,
                        stats,
                        callback,
                    ) {
                        return;
                    }
                }
                Action::Descend(idx) => {
                    let node = &self.wide.nodes[idx as usize];
                    stats.nodes_visited += 1;
                    stats.wide_nodes_visited += 1;
                    let (overlap, contained) =
                        simd::classify_lane_boxes(&node.lo, &node.hi, center, eps_sq);
                    // Push surviving lanes in reverse so pops resolve
                    // them — and everything beneath them — in ascending
                    // sorted order.
                    for l in (0..WIDTH).rev() {
                        let link = node.child[l];
                        // Masked lanes cost one compare (no visit
                        // counted); empty lanes also fail the overlap
                        // mask but are cheaper to drop here.
                        if link == EMPTY || node.ranges[l][1] < cutoff || overlap >> l & 1 == 0 {
                            continue;
                        }
                        let action = if contained >> l & 1 == 1 {
                            Action::Emit(node.ranges[l])
                        } else if link & LEAF_FLAG != 0 {
                            Action::Scan(node.ranges[l])
                        } else {
                            Action::Descend(link)
                        };
                        assert!(top < STACK_DEPTH, "wide traversal stack overflow");
                        stack[top].write(action);
                        top += 1;
                    }
                }
            }
        }
    }

    /// Batch-scans the leaf run `[first, last]` with the lane box
    /// kernel (bit-identical accept set to the scalar `Aabb::dist_sq`)
    /// and fires the callback per accepted leaf. Returns `true` when
    /// the callback broke the traversal; lane results after a break are
    /// discarded uncounted (the batch was already in flight — the waste
    /// is bounded by the run length).
    fn scan_run<F>(
        &self,
        first: u32,
        last: u32,
        center: &Point<D>,
        eps_sq: f32,
        stats: &mut QueryStats,
        callback: &mut F,
    ) -> bool
    where
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        let count = (last - first + 1) as u64;
        // One 8-lane batch is one unit of traversal work on this path,
        // so visits are charged per batch, not per leaf — keeping
        // `bvh_nodes_visited` comparable across algorithms as a work
        // proxy when both run wide.
        let batches = count.div_ceil(LANES as u64);
        stats.nodes_visited += batches;
        stats.wide_leaf_lanes += batches;
        let mut broke = false;
        simd::for_each_box_within(
            &self.leaf_lo,
            &self.leaf_hi,
            first as usize,
            last as usize + 1,
            center,
            eps_sq,
            |i| {
                if broke {
                    return;
                }
                stats.leaf_hits += 1;
                if callback(i as u32, self.leaf_payload[i], false).is_break() {
                    broke = true;
                }
            },
        );
        if broke {
            stats.terminated_early = true;
        }
        broke
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::{Device, DeviceConfig};
    use fdbscan_geom::Aabb;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(0.0..100.0)))).collect()
    }

    /// Degenerate Morton regimes: exactly collinear, equally spaced
    /// points (spine-shaped, zero-volume subtrees) or a few heavily
    /// stacked sites (duplicate codes) — the worst cases for the collapse.
    fn degenerate_points<const D: usize>(n: usize, collinear: bool, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        if collinear {
            let step = rng.gen_range(0.05f32..0.4);
            (0..n)
                .map(|i| {
                    Point::new(std::array::from_fn(|d| if d == 0 { i as f32 * step } else { 2.0 }))
                })
                .collect()
        } else {
            let sites: Vec<Point<D>> = (0..rng.gen_range(2usize..6))
                .map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(0.0f32..3.0))))
                .collect();
            (0..n).map(|i| sites[i % sites.len()]).collect()
        }
    }

    /// Mixed point and box primitives, the DenseBox shape.
    fn mixed_boxes<const D: usize>(n: usize, seed: u64) -> Vec<Aabb<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let min = Point::new(std::array::from_fn(|_| rng.gen_range(0.0f32..50.0)));
                if rng.gen_bool(0.3) {
                    let max =
                        Point::new(std::array::from_fn(|d| min[d] + rng.gen_range(0.0f32..3.0)));
                    Aabb::from_corners(min, max)
                } else {
                    Aabb::from_point(min)
                }
            })
            .collect()
    }

    fn build<const D: usize>(bounds: &[Aabb<D>]) -> Bvh<D> {
        Bvh::build(&Device::new(DeviceConfig::sequential()), bounds)
    }

    fn build_points<const D: usize>(points: &[Point<D>]) -> Bvh<D> {
        build(&points.iter().map(|p| Aabb::from_point(*p)).collect::<Vec<_>>())
    }

    /// Runs one query, breaking on the `limit`-th hit.
    fn query_hits<const D: usize>(
        bvh: &Bvh<D>,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        limit: usize,
    ) -> (Vec<(u32, u32)>, QueryStats) {
        let mut hits = Vec::new();
        let stats = bvh.for_each_in_radius(center, eps, cutoff, |pos, payload| {
            hits.push((pos, payload));
            if hits.len() >= limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        (hits, stats)
    }

    /// The walk's callback sequence must be strictly ascending in sorted
    /// leaf position and equal the binary stack reference's hit set —
    /// together, exactly the binary tree's preorder leaf sequence, the
    /// order first-writer-wins border claims depend on. A callback that
    /// breaks on its `limit`-th hit must see exactly that prefix.
    fn assert_walk_matches_binary<const D: usize>(
        bvh: &Bvh<D>,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        limit: usize,
    ) {
        let (hits, stats) = query_hits(bvh, center, eps, cutoff, limit);
        assert!(
            hits.windows(2).all(|w| w[0].0 < w[1].0),
            "hit sequence not strictly ascending (eps {eps}, cutoff {cutoff}): {hits:?}"
        );
        let mut reference = Vec::new();
        bvh.for_each_in_radius_stack(center, eps, cutoff, |pos, payload| {
            reference.push((pos, payload));
            ControlFlow::Continue(())
        });
        reference.sort_unstable();
        let expected = &reference[..reference.len().min(limit)];
        assert_eq!(
            hits, expected,
            "walk diverges from the stack reference (eps {eps}, cutoff {cutoff})"
        );
        assert_eq!(stats.leaf_hits, hits.len() as u64, "hits after a break must not be counted");
        assert_eq!(stats.terminated_early, reference.len() >= limit);
        assert_eq!(stats.distance_tests() + stats.contained_hits, stats.leaf_hits);
    }

    #[test]
    fn small_trees_skip_the_wide_layout() {
        let one = build_points(&random_points::<2>(1, 1));
        assert_eq!(one.wide.node_count(), 0, "a single leaf has no internal root");
        let two = build_points(&random_points::<2>(2, 2));
        assert_eq!(two.wide.node_count(), 1);
        assert!(two.wide.memory_bytes() > 0);
    }

    #[test]
    fn collapse_lanes_cover_the_root_range_exactly_once() {
        let bvh = build_points(&random_points::<2>(500, 21));
        let wide = &bvh.wide;
        // Node 0's filled lanes must partition the full sorted range;
        // every node's lanes must partition its own contiguous range.
        for node in &wide.nodes {
            let lanes: Vec<[u32; 2]> =
                (0..WIDTH).filter(|&l| node.child[l] != EMPTY).map(|l| node.ranges[l]).collect();
            assert!(!lanes.is_empty());
            for pair in lanes.windows(2) {
                assert_eq!(
                    pair[0][1] + 1,
                    pair[1][0],
                    "lanes must be sorted and contiguous: {pair:?}"
                );
            }
            for (l, range) in lanes.iter().enumerate() {
                assert!(range[0] <= range[1], "lane {l} range inverted");
            }
        }
        let root_lanes: Vec<[u32; 2]> = (0..WIDTH)
            .filter(|&l| wide.nodes[0].child[l] != EMPTY)
            .map(|l| wide.nodes[0].ranges[l])
            .collect();
        assert_eq!(root_lanes.first().unwrap()[0], 0);
        assert_eq!(root_lanes.last().unwrap()[1], bvh.len() as u32 - 1);
    }

    #[test]
    fn wide_query_counts_wide_work() {
        let bvh = build_points(&random_points::<2>(2000, 33));
        let (_, stats) = query_hits(&bvh, &Point::new([50.0, 50.0]), 5.0, 0, usize::MAX);
        assert!(stats.wide_nodes_visited > 0, "the walk must batch node tests");
        assert!(stats.wide_leaf_lanes > 0, "the walk must batch leaf runs");
        assert_eq!(stats.nodes_visited, 1 + stats.wide_nodes_visited + stats.wide_leaf_lanes);
    }

    #[test]
    fn wide_early_termination_stops_after_break() {
        let bvh = build_points(&vec![Point::new([1.0, 1.0]); 200]);
        let (hits, stats) = query_hits(&bvh, &Point::new([1.0, 1.0]), 1.0, 0, 7);
        assert_eq!(hits.len(), 7);
        assert!(stats.terminated_early);
        assert_eq!(stats.leaf_hits, 7, "hits after the break must not be counted");
    }

    #[test]
    fn wide_matches_binary_on_box_leaves() {
        let bvh = build(&mixed_boxes::<2>(120, 44));
        for (center, eps) in
            [([10.0, 10.0], 4.0), ([25.0, 25.0], 9.0), ([100.0, 100.0], 1.0), ([25.0, 25.0], 200.0)]
        {
            for cutoff in [0u32, 40, 120] {
                for limit in [usize::MAX, 3] {
                    assert_walk_matches_binary(&bvh, &Point::new(center), eps, cutoff, limit);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn wide_matches_binary_and_stack_reference(
            seed in any::<u64>(),
            n in 1usize..500,
            eps in 0.01f32..150.0,
            cutoff_frac in 0.0f64..1.2,
            cx in -20.0f32..120.0,
            cy in -20.0f32..120.0,
            cz in -20.0f32..120.0,
            limit in 1usize..64,
            boxes in any::<bool>(),
        ) {
            let cutoff = ((n as f64) * cutoff_frac) as u32;
            let (bvh2, bvh3) = if boxes {
                (build(&mixed_boxes::<2>(n, seed)), build(&mixed_boxes::<3>(n, seed)))
            } else {
                (
                    build_points(&random_points::<2>(n, seed)),
                    build_points(&random_points::<3>(n, seed)),
                )
            };
            for limit in [usize::MAX, limit] {
                assert_walk_matches_binary(&bvh2, &Point::new([cx, cy]), eps, cutoff, limit);
                assert_walk_matches_binary(&bvh3, &Point::new([cx, cy, cz]), eps, cutoff, limit);
            }
        }

        #[test]
        fn wide_duplicates_and_collinear_match_binary(
            seed in any::<u64>(),
            n in 2usize..300,
            collinear in any::<bool>(),
            eps in 0.01f32..10.0,
            limit in 1usize..64,
        ) {
            let points2 = degenerate_points::<2>(n, collinear, seed);
            let points3 = degenerate_points::<3>(n, collinear, seed);
            let bvh2 = build_points(&points2);
            let bvh3 = build_points(&points3);
            for cutoff in [0u32, (n / 2) as u32] {
                for limit in [usize::MAX, limit] {
                    assert_walk_matches_binary(&bvh2, &points2[n / 2], eps, cutoff, limit);
                    assert_walk_matches_binary(&bvh3, &points3[n / 2], eps, cutoff, limit);
                }
            }
        }
    }
}
