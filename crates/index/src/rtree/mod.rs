//! R\*-tree: the R-tree variant of Beckmann et al. with margin-driven
//! splits and forced reinsertion, plus Sort-Tile-Recursive bulk loading.
//!
//! # Demand-loaded leaves
//!
//! A built tree can spill its leaf entries into a [`LeafPager`]
//! (backed by the engine's buffer pool): [`RTree::spill_leaves`]
//! serializes each leaf as one blob and empties the in-tree vector,
//! keeping only the internal levels resident — roughly `1/M` of the
//! index. A spilled leaf lives only in the pager: every visit reads it
//! back through [`LeafPager::read`] (under the engine, a pin of its
//! pool page) and decodes it, and the decoded entries are dropped when
//! the visit ends, so no memory outside the pager's budget grows with
//! the leaves a workload touches.
//! Mutations ([`RTree::insert`], [`RTree::remove`]) first fault every
//! leaf back in ([`RTree::unspill`]) so the R\*-tree invariants work on
//! resident vectors; the engine re-spills on its next rebuild or pool
//! reconfiguration.
//!
//! # Float4 keys
//!
//! Every entry, leaf or inner, resident or spilled, is keyed by a
//! [`BoxKey`]: its envelope in four `f32` bounds rounded outward. The
//! API takes and gives [`Envelope`]s: [`RTree::bulk_load`] and
//! [`RTree::insert`] round on the way in ([`RTree::bulk_load`] sorts on
//! the exact envelopes first, so its leaves hold what they would hold
//! unrounded); [`RTree::remove`] rounds its argument the same way and
//! matches keys exactly; queries widen keys to `f64`, losing nothing.
//! So a window probe returns a superset of the entries whose envelopes
//! meet the window, and [`RTree::nearest`] ranks by a lower bound of the
//! envelope distance.

mod key;
mod paging;
mod split;

pub use key::BoxKey;
pub use paging::{LeafPager, LeafPayload};

use jackpine_geom::{Coord, Envelope};
use paging::Paging;
use split::{pick_min_enlargement, pick_min_overlap, rstar_split_point, sort_by_center_distance};
use std::collections::BinaryHeap;

/// Tuning parameters for an [`RTree`].
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Maximum entries per node before a split (R\*-tree `M`).
    pub max_entries: usize,
    /// Minimum entries per node (R\*-tree `m`); must be ≤ `max_entries / 2`.
    pub min_entries: usize,
    /// Entries removed and reinserted on first overflow (R\*-tree `p`).
    pub reinsert_count: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        // M = 16, m = 40 % M, p = 30 % M — the classic R*-tree settings.
        RTreeConfig { max_entries: 16, min_entries: 6, reinsert_count: 5 }
    }
}

#[derive(Clone, Debug)]
enum Node<T> {
    Internal { entries: Vec<(BoxKey, usize)> },
    Leaf { entries: Vec<(BoxKey, T)> },
}

impl<T> Node<T> {
    fn len(&self) -> usize {
        match self {
            Node::Internal { entries } => entries.len(),
            Node::Leaf { entries } => entries.len(),
        }
    }
    /// The union of the entries' keys.
    fn key(&self) -> BoxKey {
        fn union<E>(entries: &[(BoxKey, E)]) -> BoxKey {
            entries.iter().fold(BoxKey::EMPTY, |mut k, (key, _)| {
                k.expand_to_include(key);
                k
            })
        }
        match self {
            Node::Internal { entries } => union(entries),
            Node::Leaf { entries } => union(entries),
        }
    }
}

/// An R\*-tree mapping envelopes to payloads, keyed by [`BoxKey`]s.
///
/// Payloads are `Clone` (row ids in practice). The tree supports one-at-a-
/// time insertion with forced reinsert, deletion with tree condensation,
/// STR bulk loading, window queries and best-first k-nearest-neighbour
/// search. Leaves can spill to a [`LeafPager`] and load on demand; see
/// the module docs.
#[derive(Clone)]
pub struct RTree<T: Clone> {
    nodes: Vec<Node<T>>,
    root: usize,
    height: usize, // leaf level = 0; root is at `height`
    len: usize,
    config: RTreeConfig,
    /// Pager, spilled set and decoder of the spilled leaves.
    paging: Paging<T>,
}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for RTree<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .field("nodes", &self.nodes.len())
            .field("spilled", &self.spilled_leaves())
            .finish_non_exhaustive()
    }
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        RTree::new(RTreeConfig::default())
    }
}

impl<T: Clone> RTree<T> {
    /// Creates an empty tree with the given configuration.
    pub fn new(config: RTreeConfig) -> RTree<T> {
        assert!(config.max_entries >= 4, "max_entries must be at least 4");
        assert!(
            config.min_entries >= 1 && config.min_entries <= config.max_entries / 2,
            "min_entries must be in [1, max_entries/2]"
        );
        RTree {
            nodes: vec![Node::Leaf { entries: Vec::new() }],
            root: 0,
            height: 0,
            len: 0,
            config,
            paging: Paging::default(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Structure statistics.
    pub fn stats(&self) -> crate::IndexStats {
        crate::IndexStats { height: self.height + 1, entries: self.len, nodes: self.nodes.len() }
    }

    /// Bounding envelope of the whole tree: the root's key, which
    /// contains every envelope stored.
    pub fn envelope(&self) -> Envelope {
        self.nodes[self.root].key().envelope()
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts an entry under the key of `env`. Faults any spilled
    /// leaves back in first: structural mutation needs resident entry
    /// vectors.
    pub fn insert(&mut self, env: Envelope, value: T) {
        self.unspill();
        let mut reinserted = vec![false; self.height + 1];
        self.insert_entry(BoxKey::outward(&env), Entry::Leaf(value), 0, &mut reinserted);
        self.len += 1;
    }

    fn insert_entry(
        &mut self,
        key: BoxKey,
        entry: Entry<T>,
        level: usize,
        reinserted: &mut Vec<bool>,
    ) {
        let path = self.choose_path(key, level);
        let node_id = *path.last().expect("path never empty");
        match (&mut self.nodes[node_id], entry) {
            (Node::Leaf { entries }, Entry::Leaf(v)) => entries.push((key, v)),
            (Node::Internal { entries }, Entry::Node(child)) => entries.push((key, child)),
            _ => unreachable!("level bookkeeping placed entry at wrong node kind"),
        }
        self.refresh_upward(&path);
        self.overflow_chain(path, level, reinserted);
    }

    /// Root-to-target path choosing, at each step, the child needing least
    /// enlargement (least overlap increase directly above the leaves, per
    /// the R\* heuristic).
    fn choose_path(&self, key: BoxKey, target_level: usize) -> Vec<usize> {
        let mut path = Vec::with_capacity(self.height + 1);
        let mut node_id = self.root;
        let mut level = self.height;
        path.push(node_id);
        while level > target_level {
            let Node::Internal { entries } = &self.nodes[node_id] else {
                unreachable!("internal levels hold internal nodes");
            };
            let idx = if level == 1 {
                pick_min_overlap(entries, key)
            } else {
                pick_min_enlargement(entries, key)
            };
            node_id = entries[idx].1;
            level -= 1;
            path.push(node_id);
        }
        path
    }

    /// Recomputes the parent-entry keys along `path`, bottom-up.
    fn refresh_upward(&mut self, path: &[usize]) {
        for i in (1..path.len()).rev() {
            let child = path[i];
            let key = self.nodes[child].key();
            if let Node::Internal { entries } = &mut self.nodes[path[i - 1]] {
                if let Some(e) = entries.iter_mut().find(|(_, c)| *c == child) {
                    e.0 = key;
                }
            }
        }
    }

    /// Resolves overflow at the end of `path`, propagating splits upward.
    fn overflow_chain(
        &mut self,
        mut path: Vec<usize>,
        mut level: usize,
        reinserted: &mut Vec<bool>,
    ) {
        loop {
            let node_id = *path.last().expect("path never empty");
            if self.nodes[node_id].len() <= self.config.max_entries {
                return;
            }
            let is_root = node_id == self.root;
            if !is_root && !reinserted[level] {
                reinserted[level] = true;
                self.forced_reinsert(node_id, &path, level, reinserted);
                return;
            }

            // Split the node.
            let min = self.config.min_entries;
            let new_node = match &mut self.nodes[node_id] {
                Node::Leaf { entries } => {
                    let split_at = rstar_split_point(entries, min);
                    Node::Leaf { entries: entries.split_off(split_at) }
                }
                Node::Internal { entries } => {
                    let split_at = rstar_split_point(entries, min);
                    Node::Internal { entries: entries.split_off(split_at) }
                }
            };
            let new_key = new_node.key();
            let old_key = self.nodes[node_id].key();
            let new_id = self.nodes.len();
            self.nodes.push(new_node);

            if is_root {
                let root = Node::Internal { entries: vec![(old_key, node_id), (new_key, new_id)] };
                self.root = self.nodes.len();
                self.nodes.push(root);
                self.height += 1;
                reinserted.push(false);
                return;
            }
            // Fix the parent: refresh this node's entry, add the new one,
            // then continue the overflow check one level up.
            let parent = path[path.len() - 2];
            if let Node::Internal { entries } = &mut self.nodes[parent] {
                if let Some(e) = entries.iter_mut().find(|(_, c)| *c == node_id) {
                    e.0 = old_key;
                }
                entries.push((new_key, new_id));
            }
            path.pop();
            level += 1;
            self.refresh_upward(&path);
        }
    }

    /// Removes the `p` entries farthest from the node's centre and
    /// reinserts them (the R\* improvement over plain R-trees).
    fn forced_reinsert(
        &mut self,
        node_id: usize,
        path: &[usize],
        level: usize,
        reinserted: &mut Vec<bool>,
    ) {
        let center = match self.nodes[node_id].key().envelope().center() {
            Some(c) => c,
            None => return,
        };
        let p = self.config.reinsert_count.min(self.nodes[node_id].len() / 2).max(1);
        let removed: Vec<(BoxKey, Entry<T>)> = match &mut self.nodes[node_id] {
            Node::Leaf { entries } => {
                sort_by_center_distance(entries, center);
                entries.drain(entries.len() - p..).map(|(e, v)| (e, Entry::Leaf(v))).collect()
            }
            Node::Internal { entries } => {
                sort_by_center_distance(entries, center);
                entries.drain(entries.len() - p..).map(|(e, v)| (e, Entry::Node(v))).collect()
            }
        };
        self.refresh_upward(path);
        for (key, entry) in removed {
            self.insert_entry(key, entry, level, reinserted);
        }
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Builds a tree from scratch with Sort-Tile-Recursive packing: each
    /// level is sorted by center x, tiled into vertical slices, each slice
    /// sorted by center y and packed into nodes of `max_entries`, until
    /// one node remains. The leaf level sorts on the exact envelopes and
    /// keys each entry as its leaf is packed; an upper level sorts on
    /// its children's keys.
    pub fn bulk_load(config: RTreeConfig, mut items: Vec<(Envelope, T)>) -> RTree<T> {
        if items.is_empty() {
            return RTree::new(config);
        }
        let cap = config.max_entries;
        let mut tree = RTree {
            nodes: Vec::new(),
            root: 0,
            height: 0,
            len: items.len(),
            config,
            paging: Paging::default(),
        };
        let mut level_ids: Vec<usize> = Vec::new();
        str_pack(
            &mut items,
            cap,
            |(e, _)| *e,
            |run| {
                let entries = run.iter().map(|(e, v)| (BoxKey::outward(e), v.clone())).collect();
                level_ids.push(tree.nodes.len());
                tree.nodes.push(Node::Leaf { entries });
            },
        );
        while level_ids.len() > 1 {
            tree.height += 1;
            let mut upper: Vec<(BoxKey, usize)> =
                level_ids.iter().map(|&id| (tree.nodes[id].key(), id)).collect();
            level_ids.clear();
            str_pack(
                &mut upper,
                cap,
                |(k, _)| k.envelope(),
                |run| {
                    level_ids.push(tree.nodes.len());
                    tree.nodes.push(Node::Internal { entries: run.to_vec() });
                },
            );
        }
        tree.root = level_ids[0];
        tree
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes one entry for which `pred` returns true whose key is
    /// exactly the key of `env` (the key [`RTree::insert`] gave it).
    /// Returns the removed payload, if any. Underfull nodes are
    /// condensed by reinserting their entries, recursively up the tree.
    /// Faults any spilled leaves back in first.
    pub fn remove(&mut self, env: &Envelope, pred: impl Fn(&T) -> bool) -> Option<T> {
        self.unspill();
        let key = BoxKey::outward(env);
        let path = self.find_leaf_path(self.root, &key, &pred)?;
        let leaf = *path.last().expect("path never empty");
        let removed = match &mut self.nodes[leaf] {
            Node::Leaf { entries } => {
                let pos = entries.iter().position(|(k, v)| *k == key && pred(v))?;
                Some(entries.swap_remove(pos).1)
            }
            Node::Internal { .. } => None,
        }?;
        self.len -= 1;
        self.refresh_upward(&path);
        self.condense(path);
        Some(removed)
    }

    /// Walks `path` bottom-up, dissolving underfull nodes by reinserting
    /// their entries, then shrinks a single-child root.
    fn condense(&mut self, mut path: Vec<usize>) {
        let mut level = 0usize;
        while path.len() > 1 {
            let node_id = path.pop().expect("checked len");
            if self.nodes[node_id].len() >= self.config.min_entries {
                level += 1;
                continue;
            }
            // Detach from parent and reinsert the orphaned entries.
            let parent = *path.last().expect("checked len");
            if let Node::Internal { entries } = &mut self.nodes[parent] {
                if let Some(pos) = entries.iter().position(|&(_, c)| c == node_id) {
                    entries.swap_remove(pos);
                }
            }
            self.refresh_upward(&path);
            let orphans: Vec<(BoxKey, Entry<T>)> = match &mut self.nodes[node_id] {
                Node::Leaf { entries } => {
                    std::mem::take(entries).into_iter().map(|(e, v)| (e, Entry::Leaf(v))).collect()
                }
                Node::Internal { entries } => {
                    std::mem::take(entries).into_iter().map(|(e, c)| (e, Entry::Node(c))).collect()
                }
            };
            for (key, entry) in orphans {
                let mut reinserted = vec![false; self.height + 1];
                self.insert_entry(key, entry, level, &mut reinserted);
            }
            level += 1;
        }
        // Shrink a root that has become a single-child internal node.
        while self.height > 0 {
            let Node::Internal { entries } = &self.nodes[self.root] else {
                break;
            };
            if entries.len() == 1 {
                self.root = entries[0].1;
                self.height -= 1;
            } else {
                break;
            }
        }
    }

    fn find_leaf_path(
        &self,
        node_id: usize,
        key: &BoxKey,
        pred: &impl Fn(&T) -> bool,
    ) -> Option<Vec<usize>> {
        match &self.nodes[node_id] {
            Node::Leaf { entries } => {
                entries.iter().any(|(k, v)| k == key && pred(v)).then(|| vec![node_id])
            }
            Node::Internal { entries } => {
                for (k, child) in entries {
                    if k.contains(key) {
                        if let Some(mut path) = self.find_leaf_path(*child, key, pred) {
                            path.insert(0, node_id);
                            return Some(path);
                        }
                    }
                }
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Calls `visit` for every entry whose key intersects `window`, with
    /// the key as an envelope: every entry whose envelope intersects it,
    /// and any whose key meets it only because it was rounded outward.
    pub fn query_window(&self, window: &Envelope, mut visit: impl FnMut(&Envelope, &T)) {
        let mut nodes_visited = 0u64;
        self.query_rec(self.root, window, &mut visit, &mut nodes_visited);
    }

    /// [`RTree::query_window`] that also reports how many tree nodes the
    /// probe inspected and how many candidates it emitted.
    pub fn query_window_probe(
        &self,
        window: &Envelope,
        mut visit: impl FnMut(&Envelope, &T),
    ) -> crate::ProbeStats {
        let mut stats = crate::ProbeStats::default();
        let mut counting = |e: &Envelope, v: &T| {
            stats.candidates += 1;
            visit(e, v);
        };
        self.query_rec(self.root, window, &mut counting, &mut stats.nodes_visited);
        stats
    }

    /// Collects the payloads of every entry whose key intersects `window`.
    pub fn window(&self, window: &Envelope) -> Vec<T> {
        let mut out = Vec::new();
        self.query_window(window, |_, v| out.push(v.clone()));
        out
    }

    fn query_rec(
        &self,
        node_id: usize,
        window: &Envelope,
        visit: &mut impl FnMut(&Envelope, &T),
        nodes_visited: &mut u64,
    ) {
        *nodes_visited += 1;
        match &self.nodes[node_id] {
            Node::Leaf { .. } => {
                for (k, v) in self.leaf_entries(node_id).iter() {
                    if k.intersects(window) {
                        visit(&k.envelope(), v);
                    }
                }
            }
            Node::Internal { entries } => {
                for (k, child) in entries {
                    if k.intersects(window) {
                        self.query_rec(*child, window, visit, nodes_visited);
                    }
                }
            }
        }
    }

    /// Best-first k-nearest-neighbour search from `query`, by key
    /// distance: a lower bound of the envelope distance. Returns
    /// `(distance, payload)` pairs in ascending order.
    pub fn nearest(&self, query: Coord, k: usize) -> Vec<(f64, T)> {
        self.nearest_probe(query, k).0
    }

    /// [`RTree::nearest`] that also reports how many tree nodes the
    /// best-first search expanded and how many results it produced.
    pub fn nearest_probe(&self, query: Coord, k: usize) -> (Vec<(f64, T)>, crate::ProbeStats) {
        /// A node to expand or an entry to emit; a leaf's entries carry
        /// their payload, so a spilled leaf is read once per expansion.
        struct Cand<T> {
            dist: f64,
            item: Entry<T>,
        }
        impl<T> PartialEq for Cand<T> {
            fn eq(&self, other: &Self) -> bool {
                self.dist.total_cmp(&other.dist).is_eq()
            }
        }
        impl<T> Eq for Cand<T> {}
        impl<T> Ord for Cand<T> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap.
                other.dist.total_cmp(&self.dist)
            }
        }
        impl<T> PartialOrd for Cand<T> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut stats = crate::ProbeStats::default();
        let mut out: Vec<(f64, T)> = Vec::with_capacity(k);
        if k == 0 || self.is_empty() {
            return (out, stats);
        }
        let mut heap: BinaryHeap<Cand<T>> = BinaryHeap::new();
        heap.push(Cand { dist: 0.0, item: Entry::Node(self.root) });
        while let Some(c) = heap.pop() {
            match c.item {
                Entry::Node(node_id) => {
                    stats.nodes_visited += 1;
                    match &self.nodes[node_id] {
                        Node::Internal { entries } => {
                            for (k, child) in entries {
                                let dist = k.distance_to_coord(query);
                                heap.push(Cand { dist, item: Entry::Node(*child) });
                            }
                        }
                        Node::Leaf { .. } => {
                            for (k, v) in self.leaf_entries(node_id).iter() {
                                let dist = k.distance_to_coord(query);
                                heap.push(Cand { dist, item: Entry::Leaf(v.clone()) });
                            }
                        }
                    }
                }
                Entry::Leaf(v) => {
                    stats.candidates += 1;
                    out.push((c.dist, v));
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        (out, stats)
    }
}

enum Entry<T> {
    Leaf(T),
    Node(usize),
}

fn center_x(e: &Envelope) -> f64 {
    (e.min_x + e.max_x) * 0.5
}
fn center_y(e: &Envelope) -> f64 {
    (e.min_y + e.max_y) * 0.5
}

/// `f64::total_cmp` as a key: the same bit transform, so two keys compare
/// as their floats do under it — NaNs and signed zeros included — and a
/// sort is computed once per item instead of once per comparison.
fn total_order_key(f: f64) -> i64 {
    let bits = f.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// One STR level: sorts `items` by the center x of their envelopes
/// (`env`), tiles them into about `sqrt(len / cap)` vertical slices,
/// sorts each slice by center y and hands each run of `cap` to `pack`,
/// in order. Both sorts are stable.
fn str_pack<I>(
    items: &mut [I],
    cap: usize,
    env: impl Fn(&I) -> Envelope,
    mut pack: impl FnMut(&[I]),
) {
    let slices = (items.len().div_ceil(cap) as f64).sqrt().ceil() as usize;
    let per_slice = items.len().div_ceil(slices);
    items.sort_by_cached_key(|i| total_order_key(center_x(&env(i))));
    for slice in items.chunks_mut(per_slice) {
        slice.sort_by_cached_key(|i| total_order_key(center_y(&env(i))));
        for run in slice.chunks(cap) {
            pack(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_storage::sync::Mutex;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn pt_env(x: f64, y: f64) -> Envelope {
        Envelope::new(x, y, x, y)
    }

    /// Deterministic pseudo-random point cloud.
    fn cloud(n: usize) -> Vec<(Envelope, usize)> {
        let mut state = 0x12345678u64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = ((state >> 33) % 10_000) as f64 / 10.0;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let y = ((state >> 33) % 10_000) as f64 / 10.0;
            out.push((pt_env(x, y), i));
        }
        out
    }

    /// The entries of `items` whose envelopes (or, `keyed`, whose keys)
    /// meet `window`, sorted.
    fn brute_window(items: &[(Envelope, usize)], window: &Envelope, keyed: bool) -> Vec<usize> {
        let bound = |e: &Envelope| if keyed { BoxKey::outward(e).envelope() } else { *e };
        let mut want: Vec<usize> =
            items.iter().filter(|(e, _)| window.intersects(&bound(e))).map(|(_, v)| *v).collect();
        want.sort_unstable();
        want
    }

    /// `tree`'s answer for `window` is brute force over the keys, and
    /// holds brute force over the exact envelopes.
    fn assert_window(tree: &RTree<usize>, items: &[(Envelope, usize)], window: &Envelope) {
        let mut got = tree.window(window);
        got.sort_unstable();
        assert_eq!(got, brute_window(items, window, true), "window {window:?}");
        let exact = brute_window(items, window, false);
        assert!(exact.iter().all(|v| got.binary_search(v).is_ok()), "window {window:?}");
    }

    #[test]
    fn insert_and_window_query() {
        let mut t: RTree<usize> = RTree::default();
        for (e, v) in cloud(500) {
            t.insert(e, v);
        }
        assert_eq!(t.len(), 500);
        let window = Envelope::new(100.0, 100.0, 300.0, 300.0);
        assert_window(&t, &cloud(500), &window);
        assert!(!t.window(&window).is_empty());
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let mut items = cloud(2000);
        // 0.1 lies between two float4 values; its key reaches down to the
        // lower one, which the last window's edge is.
        items.push((pt_env(0.1, 0.5), 2000));
        let t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        assert_eq!(t.len(), 2001);
        let edge = Envelope::new(-1.0, 0.0, f64::from(0.1f32.next_down()), 1.0);
        for window in [
            Envelope::new(0.0, 0.0, 50.0, 50.0),
            Envelope::new(500.0, 500.0, 700.0, 900.0),
            Envelope::new(999.0, 999.0, 1000.0, 1000.0),
            Envelope::new(-10.0, -10.0, -5.0, -5.0),
            edge,
        ] {
            assert_window(&t, &items, &window);
        }
        // The key meets the edge window; the envelope does not.
        assert!(t.window(&edge).contains(&2000));
        assert!(!brute_window(&items, &edge, false).contains(&2000));
    }

    /// The STR build as it sorted before its sort keys: `sort_by` on
    /// `total_cmp`, once per comparison, forming box keys as the tree
    /// does (leaf entries keyed from their exact envelopes, each upper
    /// entry the key of its child) — the reference `bulk_load` must match
    /// node for node.
    fn bulk_load_by_comparator(mut items: Vec<(Envelope, usize)>) -> RTree<usize> {
        fn level<E: Clone>(items: &mut [(Envelope, E)], cap: usize) -> Vec<Vec<(Envelope, E)>> {
            let slices = (items.len().div_ceil(cap) as f64).sqrt().ceil() as usize;
            let per_slice = items.len().div_ceil(slices);
            items.sort_by(|a, b| center_x(&a.0).total_cmp(&center_x(&b.0)));
            let mut runs = Vec::new();
            for slice in items.chunks_mut(per_slice) {
                slice.sort_by(|a, b| center_y(&a.0).total_cmp(&center_y(&b.0)));
                runs.extend(slice.chunks(cap).map(<[_]>::to_vec));
            }
            runs
        }
        let mut tree = RTree::new(RTreeConfig::default());
        tree.nodes.clear();
        tree.len = items.len();
        let cap = tree.config.max_entries;
        let mut ids: Vec<usize> = Vec::new();
        for run in level(&mut items, cap) {
            ids.push(tree.nodes.len());
            let entries = run.into_iter().map(|(e, v)| (BoxKey::outward(&e), v)).collect();
            tree.nodes.push(Node::Leaf { entries });
        }
        while ids.len() > 1 {
            tree.height += 1;
            let mut upper: Vec<(Envelope, usize)> =
                ids.iter().map(|&id| (tree.nodes[id].key().envelope(), id)).collect();
            ids.clear();
            for run in level(&mut upper, cap) {
                ids.push(tree.nodes.len());
                let entries = run.into_iter().map(|(_, id)| (tree.nodes[id].key(), id)).collect();
                tree.nodes.push(Node::Internal { entries });
            }
        }
        tree.root = ids[0];
        tree
    }

    /// A node as bits, so that NaN keys compare equal to themselves.
    fn node_bits(node: &Node<usize>) -> (bool, Vec<([u32; 4], usize)>) {
        let bits = |(k, v): &(BoxKey, usize)| (k.bounds().map(f32::to_bits), *v);
        match node {
            Node::Leaf { entries } => (true, entries.iter().map(bits).collect()),
            Node::Internal { entries } => (false, entries.iter().map(bits).collect()),
        }
    }

    #[test]
    fn keyed_str_matches_the_total_cmp_comparator_node_for_node() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.5,
            -1.5,
            f64::MAX,
            f64::MIN,
        ];
        for a in specials {
            for b in specials {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} against {b:?}"
                );
            }
        }
        // A cloud, with NaN centers of either sign (empty envelopes), both
        // signed zeros, and long runs of equal centers whose payloads show
        // whether the sorts kept them in input order.
        let mut items = cloud(20_000);
        let nan = Envelope { min_x: f64::NAN, min_y: f64::NAN, max_x: f64::NAN, max_y: f64::NAN };
        let neg_nan =
            Envelope { min_x: -f64::NAN, min_y: -f64::NAN, max_x: -f64::NAN, max_y: -f64::NAN };
        for i in 0..600 {
            let env = match i % 6 {
                0 => Envelope::EMPTY,
                1 => nan,
                2 => neg_nan,
                3 => pt_env(-0.0, 0.0),
                4 => pt_env(0.0, -0.0),
                _ => pt_env(500.0, 500.0),
            };
            items.insert(i * 31 % items.len(), (env, 1_000_000 + i));
        }
        for n in [1, 15, 17, 300, items.len()] {
            let keyed = RTree::bulk_load(RTreeConfig::default(), items[..n].to_vec());
            let reference = bulk_load_by_comparator(items[..n].to_vec());
            assert_eq!(keyed.len(), reference.len(), "n={n}");
            assert_eq!(keyed.root, reference.root, "n={n}");
            assert_eq!(keyed.height, reference.height, "n={n}");
            assert_eq!(keyed.nodes.len(), reference.nodes.len(), "n={n}");
            for (i, (a, b)) in keyed.nodes.iter().zip(&reference.nodes).enumerate() {
                assert!(node_bits(a) == node_bits(b), "node {i} differs at n={n}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let items = cloud(800);
        let t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        let q = Coord::new(500.0, 500.0);
        let got = t.nearest(q, 10);
        assert_eq!(got.len(), 10);
        // Ranked by the stored keys' distances.
        let mut dists: Vec<f64> =
            items.iter().map(|(e, _)| BoxKey::outward(e).distance_to_coord(q)).collect();
        dists.sort_by(f64::total_cmp);
        for (i, (d, _)) in got.iter().enumerate() {
            assert!((d - dists[i]).abs() < 1e-9, "k={i}: {d} vs {}", dists[i]);
        }
        // Ascending order.
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn knn_edge_cases() {
        let t: RTree<usize> = RTree::default();
        assert!(t.nearest(Coord::new(0.0, 0.0), 5).is_empty());
        let mut t: RTree<usize> = RTree::default();
        t.insert(pt_env(1.0, 1.0), 7);
        let r = t.nearest(Coord::new(0.0, 0.0), 5);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1, 7);
        assert!(t.nearest(Coord::new(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn removal_and_condensation() {
        let items = cloud(300);
        let mut t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        // Remove half the entries.
        for (e, v) in items.iter().take(150) {
            let removed = t.remove(e, |x| x == v);
            assert_eq!(removed, Some(*v), "failed to remove {v}");
        }
        assert_eq!(t.len(), 150);
        // Remaining entries still queryable.
        let all = Envelope::new(-1.0, -1.0, 2000.0, 2000.0);
        let mut got = t.window(&all);
        got.sort_unstable();
        let want: Vec<usize> = (150..300).collect();
        assert_eq!(got, want);
        // Removing a non-existent entry returns None.
        assert_eq!(t.remove(&pt_env(-99.0, -99.0), |_| true), None);
    }

    #[test]
    fn envelopes_stay_consistent_under_mixed_workload() {
        let mut t: RTree<usize> = RTree::default();
        let items = cloud(400);
        for (e, v) in items.iter().take(200) {
            t.insert(*e, *v);
        }
        for (e, v) in items.iter().take(100) {
            assert!(t.remove(e, |x| x == v).is_some());
        }
        for (e, v) in items.iter().skip(200) {
            t.insert(*e, *v);
        }
        assert_eq!(t.len(), 300);
        let mut got = t.window(&Envelope::new(-1.0, -1.0, 2000.0, 2000.0));
        got.sort_unstable();
        let want: Vec<usize> = (100..400).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rectangles_not_just_points() {
        let mut t: RTree<&str> = RTree::default();
        t.insert(Envelope::new(0.0, 0.0, 10.0, 10.0), "big");
        t.insert(Envelope::new(2.0, 2.0, 3.0, 3.0), "small");
        t.insert(Envelope::new(20.0, 20.0, 30.0, 30.0), "far");
        let hits = t.window(&Envelope::new(2.5, 2.5, 2.6, 2.6));
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&"big") && hits.contains(&"small"));
    }

    #[test]
    fn stats_reflect_structure() {
        let t = RTree::bulk_load(RTreeConfig::default(), cloud(1000));
        let s = t.stats();
        assert_eq!(s.entries, 1000);
        assert!(s.height >= 2, "1000 entries with M=16 must be at least 2 levels");
        assert!(s.nodes > 1000 / 16);
    }

    #[test]
    fn probe_stats_reflect_work() {
        let items = cloud(2000);
        let t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        let window = Envelope::new(100.0, 100.0, 300.0, 300.0);
        let mut hits = 0u64;
        let stats = t.query_window_probe(&window, |_, _| hits += 1);
        assert_eq!(stats.candidates, hits);
        assert!(hits > 0);
        // The probe visited at least the root, and a selective window
        // must not walk the entire tree.
        assert!(stats.nodes_visited >= 1);
        assert!((stats.nodes_visited as usize) < t.nodes.len());
        // Probe results match the plain query path.
        assert_eq!(t.window(&window).len() as u64, stats.candidates);

        let (nn, nn_stats) = t.nearest_probe(Coord::new(500.0, 500.0), 10);
        assert_eq!(nn.len(), 10);
        assert_eq!(nn_stats.candidates, 10);
        assert!(nn_stats.nodes_visited >= 1);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn bad_config_panics() {
        let _: RTree<usize> =
            RTree::new(RTreeConfig { max_entries: 8, min_entries: 5, ..Default::default() });
    }

    /// HashMap-backed pager for spill tests.
    #[derive(Debug, Default)]
    struct MapPager {
        blobs: Mutex<HashMap<u64, Vec<u8>>>,
        reads: std::sync::atomic::AtomicU64,
    }

    impl LeafPager for MapPager {
        fn write(&self, leaf: u64, bytes: &[u8]) {
            self.blobs.lock().insert(leaf, bytes.to_vec());
        }
        fn read(&self, leaf: u64) -> Option<Vec<u8>> {
            self.reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.blobs.lock().get(&leaf).cloned()
        }
    }

    #[test]
    fn spilled_tree_answers_queries_identically() {
        let items = cloud(2000);
        let mut t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        let window = Envelope::new(100.0, 100.0, 400.0, 350.0);
        let want_window = {
            let mut v = t.window(&window);
            v.sort_unstable();
            v
        };
        let want_knn = t.nearest(Coord::new(500.0, 500.0), 25);

        let pager = Arc::new(MapPager::default());
        t.attach_pager(pager.clone());
        t.spill_leaves();
        assert!(t.spilled_leaves() > 0, "a 2000-entry tree has pageable leaves");

        // Cold probe: leaves come back through the pager.
        let mut got = t.window(&window);
        got.sort_unstable();
        assert_eq!(got, want_window);
        assert!(pager.reads.load(std::sync::atomic::Ordering::Relaxed) > 0);

        // A second probe reads the same leaves again: nothing of them
        // was kept.
        let reads = || pager.reads.load(std::sync::atomic::Ordering::Relaxed);
        let cold_reads = reads();
        let mut again = t.window(&window);
        again.sort_unstable();
        assert_eq!(again, want_window);
        assert_eq!(reads(), 2 * cold_reads);

        // k-NN reads each leaf it expands once, and answers the same.
        let before = reads();
        let (got_knn, stats) = t.nearest_probe(Coord::new(500.0, 500.0), 25);
        assert_eq!(got_knn, want_knn);
        assert!(reads() - before <= stats.nodes_visited, "one read per expanded leaf");

        // Clones share the pager and the spilled state.
        let c = t.clone();
        let mut cloned = c.window(&window);
        cloned.sort_unstable();
        assert_eq!(cloned, want_window);
    }

    #[test]
    fn mutation_after_spill_faults_leaves_back_in() {
        let items = cloud(1500);
        let mut t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        t.attach_pager(Arc::new(MapPager::default()));
        t.spill_leaves();
        assert!(t.spilled_leaves() > 0);

        t.insert(pt_env(123.5, 456.5), 999_999usize);
        assert_eq!(t.spilled_leaves(), 0, "insert must unspill");
        assert_eq!(t.len(), 1501);
        let got = t.window(&pt_env(123.5, 456.5));
        assert!(got.contains(&999_999));

        // Full contents intact after the unspill.
        let mut all = t.window(&Envelope::new(-1.0, -1.0, 1001.0, 1001.0));
        all.sort_unstable();
        assert_eq!(all.len(), 1501);

        // Spill again, then remove through the unspill path.
        t.spill_leaves();
        assert!(t.spilled_leaves() > 0, "pager stays attached for re-spill");
        let removed = t.remove(&pt_env(123.5, 456.5), |v| *v == 999_999);
        assert_eq!(removed, Some(999_999));
        assert_eq!(t.spilled_leaves(), 0);
        assert_eq!(t.len(), 1500);
    }

    #[test]
    fn height_zero_and_empty_trees_never_spill() {
        let mut empty: RTree<usize> = RTree::default();
        empty.attach_pager(Arc::new(MapPager::default()));
        empty.spill_leaves();
        assert_eq!(empty.spilled_leaves(), 0);

        let mut tiny = RTree::bulk_load(RTreeConfig::default(), cloud(5));
        assert_eq!(tiny.stats().height, 1, "5 entries fit in the root leaf");
        tiny.attach_pager(Arc::new(MapPager::default()));
        tiny.spill_leaves();
        assert_eq!(tiny.spilled_leaves(), 0, "root leaf stays resident");
        assert_eq!(tiny.window(&Envelope::new(-1.0, -1.0, 1001.0, 1001.0)).len(), 5);
    }
}
