//! R\*-tree: the R-tree variant of Beckmann et al. with margin-driven
//! splits and forced reinsertion, plus Sort-Tile-Recursive bulk loading.
//!
//! # Demand-loaded leaves
//!
//! A built tree can spill its leaf entries into a [`LeafPager`]
//! (backed by the engine's buffer pool): [`RTree::spill_leaves`]
//! serializes each leaf as one blob and empties the in-tree vector,
//! keeping only the internal levels resident — roughly `1/M` of the
//! index. Queries load spilled leaves on demand through a decoded-leaf
//! cache (an `Arc` per leaf, so warm probes cost one clone); the
//! benchmark's cold switch drops that cache with
//! [`RTree::clear_leaf_cache`], forcing re-reads through the pager.
//! Mutations ([`RTree::insert`], [`RTree::remove`]) first fault every
//! leaf back in ([`RTree::unspill`]) so the R\*-tree invariants work on
//! resident vectors; the engine re-spills on its next rebuild or pool
//! reconfiguration.

use jackpine_geom::{Coord, Envelope};
use jackpine_storage::sync::Mutex;
use jackpine_storage::RowId;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Backing store for spilled R-tree leaves, keyed by leaf id. The pager
/// decides the layout; the engine's packs runs of leaves into pool pages.
pub trait LeafPager: Send + Sync + std::fmt::Debug {
    /// Stores the serialized image of leaf `leaf`.
    fn write(&self, leaf: u64, bytes: &[u8]);
    /// Loads the serialized image of leaf `leaf`, if present.
    fn read(&self, leaf: u64) -> Option<Vec<u8>>;
}

/// Payloads that can round-trip through a spilled leaf.
pub trait LeafPayload: Sized {
    /// Appends the serialized payload to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one payload starting at `*pos`, advancing it.
    fn decode(bytes: &[u8], pos: &mut usize) -> Option<Self>;
}

impl LeafPayload for RowId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.page.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Option<RowId> {
        let page = u32::from_le_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?);
        let slot = u16::from_le_bytes(bytes.get(*pos + 4..*pos + 6)?.try_into().ok()?);
        *pos += 6;
        Some(RowId { page, slot })
    }
}

impl LeafPayload for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Option<u64> {
        let v = u64::from_le_bytes(bytes.get(*pos..*pos + 8)?.try_into().ok()?);
        *pos += 8;
        Some(v)
    }
}

impl LeafPayload for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Option<usize> {
        u64::decode(bytes, pos).map(|v| v as usize)
    }
}

/// Serializes a leaf's entries: `count u32 | (envelope 4×f64 | payload)*`.
/// Envelope fields are stored as raw little-endian bits so `EMPTY`
/// (inverted infinities) and NaN coordinates round-trip exactly.
fn encode_leaf<T: LeafPayload>(entries: &[(Envelope, T)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.len() * 40);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (env, value) in entries {
        for f in [env.min_x, env.min_y, env.max_x, env.max_y] {
            out.extend_from_slice(&f.to_le_bytes());
        }
        value.encode(&mut out);
    }
    out
}

/// Inverse of [`encode_leaf`].
fn decode_leaf<T: LeafPayload>(bytes: &[u8]) -> Option<Vec<(Envelope, T)>> {
    let count = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let mut pos = 4usize;
    let mut out = Vec::with_capacity(count.min(bytes.len() / 40 + 1));
    for _ in 0..count {
        let mut f = [0.0f64; 4];
        for slot in &mut f {
            *slot = f64::from_le_bytes(bytes.get(pos..pos + 8)?.try_into().ok()?);
            pos += 8;
        }
        // Direct construction: Envelope::new normalizes bounds, which
        // would corrupt the EMPTY sentinel.
        let env = Envelope { min_x: f[0], min_y: f[1], max_x: f[2], max_y: f[3] };
        let value = T::decode(bytes, &mut pos)?;
        out.push((env, value));
    }
    Some(out)
}

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
    Internal { entries: Vec<(Envelope, usize)> },
    Leaf { entries: Vec<(Envelope, T)> },
}

impl<T> Node<T> {
    fn len(&self) -> usize {
        match self {
            Node::Internal { entries } => entries.len(),
            Node::Leaf { entries } => entries.len(),
        }
    }
    fn envelope(&self) -> Envelope {
        let mut e = Envelope::EMPTY;
        match self {
            Node::Internal { entries } => {
                for (env, _) in entries {
                    e.expand_to_include(env);
                }
            }
            Node::Leaf { entries } => {
                for (env, _) in entries {
                    e.expand_to_include(env);
                }
            }
        }
        e
    }
}

/// Read access to one leaf's entries: a borrow when resident, a shared
/// decoded image when the leaf is spilled.
enum LeafRef<'a, T> {
    Resident(&'a [(Envelope, T)]),
    Loaded(Arc<Vec<(Envelope, T)>>),
}

impl<T> std::ops::Deref for LeafRef<'_, T> {
    type Target = [(Envelope, T)];
    fn deref(&self) -> &Self::Target {
        match self {
            LeafRef::Resident(entries) => entries,
            LeafRef::Loaded(entries) => entries.as_slice(),
        }
    }
}

/// An R\*-tree mapping envelopes to payloads.
///
/// Payloads are `Clone` (row ids in practice). The tree supports one-at-a-
/// time insertion with forced reinsert, deletion with tree condensation,
/// STR bulk loading, window queries and best-first k-nearest-neighbour
/// search. Leaves can spill to a [`LeafPager`] and load on demand; see
/// the module docs.
pub struct RTree<T: Clone> {
    nodes: Vec<Node<T>>,
    root: usize,
    height: usize, // leaf level = 0; root is at `height`
    len: usize,
    config: RTreeConfig,
    /// Backing store for spilled leaves, when attached.
    pager: Option<Arc<dyn LeafPager>>,
    /// Node ids whose leaf entries currently live in the pager.
    spilled: HashSet<usize>,
    /// Decoder captured (monomorphized) at spill time, so query paths
    /// need no `T: LeafPayload` bound.
    decoder: Option<LeafDecoder<T>>,
    /// Decoded-leaf cache: warm probes of a spilled leaf cost one
    /// `Arc` clone; the benchmark's cold switch clears it.
    leaf_cache: Mutex<HashMap<usize, Arc<LeafEntries<T>>>>,
}

/// The entries of one leaf.
type LeafEntries<T> = Vec<(Envelope, T)>;
/// Decodes a spilled leaf's page image.
type LeafDecoder<T> = fn(&[u8]) -> Option<LeafEntries<T>>;

impl<T: Clone> Clone for RTree<T> {
    fn clone(&self) -> Self {
        RTree {
            nodes: self.nodes.clone(),
            root: self.root,
            height: self.height,
            len: self.len,
            config: self.config,
            pager: self.pager.clone(),
            spilled: self.spilled.clone(),
            decoder: self.decoder,
            leaf_cache: Mutex::new(self.leaf_cache.lock().clone()),
        }
    }
}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for RTree<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .field("nodes", &self.nodes.len())
            .field("spilled", &self.spilled.len())
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
            pager: None,
            spilled: HashSet::new(),
            decoder: None,
            leaf_cache: Mutex::new(HashMap::new()),
        }
    }

    // ------------------------------------------------------------------
    // Leaf spill / demand loading
    // ------------------------------------------------------------------

    /// Attaches the pager spilled leaves are written to and read from.
    pub fn attach_pager(&mut self, pager: Arc<dyn LeafPager>) {
        self.pager = Some(pager);
    }

    /// Whether a pager is attached.
    pub fn has_pager(&self) -> bool {
        self.pager.is_some()
    }

    /// Number of leaves currently spilled (diagnostics).
    pub fn spilled_leaves(&self) -> usize {
        self.spilled.len()
    }

    /// Serializes every leaf into the attached pager in node-id order
    /// (STR order after a bulk load) and drops the resident entry
    /// vectors; inner nodes stay. A no-op without a pager, and for trees
    /// of height 0 (the root is the only leaf — not worth paging).
    pub fn spill_leaves(&mut self)
    where
        T: LeafPayload,
    {
        let Some(pager) = self.pager.clone() else { return };
        if self.height == 0 {
            return;
        }
        self.decoder = Some(decode_leaf::<T>);
        for (id, node) in self.nodes.iter_mut().enumerate() {
            if let Node::Leaf { entries } = node {
                if entries.is_empty() {
                    continue;
                }
                let taken = std::mem::take(entries);
                pager.write(id as u64, &encode_leaf(&taken));
                self.spilled.insert(id);
            }
        }
        self.leaf_cache.lock().clear();
    }

    /// Faults every spilled leaf back into the tree (mutations need
    /// resident entry vectors). The pager stays attached so the engine
    /// can re-spill later.
    pub fn unspill(&mut self) {
        if self.spilled.is_empty() {
            return;
        }
        let mut ids: Vec<usize> = self.spilled.iter().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let loaded = self.load_leaf(id);
            if let Node::Leaf { entries } = &mut self.nodes[id] {
                *entries = loaded.as_ref().clone();
            }
        }
        self.spilled.clear();
        self.leaf_cache.lock().clear();
    }

    /// Drops the decoded-leaf cache — the cold-run switch for spilled
    /// leaves: the next probe of each leaf re-reads through the pager.
    pub fn clear_leaf_cache(&self) {
        self.leaf_cache.lock().clear();
    }

    /// Loads a spilled leaf's entries through the decoded-leaf cache.
    /// Panics on a missing or undecodable image: the pager is this
    /// process's own buffer pool, so that is an invariant violation,
    /// not user-visible corruption.
    fn load_leaf(&self, node_id: usize) -> Arc<Vec<(Envelope, T)>> {
        if let Some(hit) = self.leaf_cache.lock().get(&node_id) {
            return hit.clone();
        }
        let pager = self.pager.as_ref().expect("spilled leaf without a pager");
        let decoder = self.decoder.expect("spilled leaf without a decoder");
        let bytes =
            pager.read(node_id as u64).unwrap_or_else(|| panic!("leaf {node_id} lost by pager"));
        let entries =
            Arc::new(decoder(&bytes).unwrap_or_else(|| panic!("leaf {node_id} undecodable")));
        self.leaf_cache.lock().insert(node_id, entries.clone());
        entries
    }

    /// Read access to a leaf's entries, resident or spilled.
    fn leaf_entries(&self, node_id: usize) -> LeafRef<'_, T> {
        if self.spilled.contains(&node_id) {
            return LeafRef::Loaded(self.load_leaf(node_id));
        }
        match &self.nodes[node_id] {
            Node::Leaf { entries } => LeafRef::Resident(entries),
            Node::Internal { .. } => unreachable!("leaf_entries on internal node"),
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

    /// Bounding envelope of the whole tree.
    pub fn envelope(&self) -> Envelope {
        self.nodes[self.root].envelope()
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts an entry. Faults any spilled leaves back in first:
    /// structural mutation needs resident entry vectors.
    pub fn insert(&mut self, env: Envelope, value: T) {
        self.unspill();
        let mut reinserted = vec![false; self.height + 1];
        self.insert_entry(env, Entry::Leaf(value), 0, &mut reinserted);
        self.len += 1;
    }

    fn insert_entry(
        &mut self,
        env: Envelope,
        entry: Entry<T>,
        level: usize,
        reinserted: &mut Vec<bool>,
    ) {
        let path = self.choose_path(env, level);
        let node_id = *path.last().expect("path never empty");
        match (&mut self.nodes[node_id], entry) {
            (Node::Leaf { entries }, Entry::Leaf(v)) => entries.push((env, v)),
            (Node::Internal { entries }, Entry::Node(child)) => entries.push((env, child)),
            _ => unreachable!("level bookkeeping placed entry at wrong node kind"),
        }
        self.refresh_upward(&path);
        self.overflow_chain(path, level, reinserted);
    }

    /// Root-to-target path choosing, at each step, the child needing least
    /// enlargement (least overlap increase directly above the leaves, per
    /// the R\* heuristic).
    fn choose_path(&self, env: Envelope, target_level: usize) -> Vec<usize> {
        let mut path = Vec::with_capacity(self.height + 1);
        let mut node_id = self.root;
        let mut level = self.height;
        path.push(node_id);
        while level > target_level {
            let Node::Internal { entries } = &self.nodes[node_id] else {
                unreachable!("internal levels hold internal nodes");
            };
            let idx = if level == 1 {
                self.pick_min_overlap(entries, env)
            } else {
                pick_min_enlargement(entries, env)
            };
            node_id = entries[idx].1;
            level -= 1;
            path.push(node_id);
        }
        path
    }

    fn pick_min_overlap(&self, entries: &[(Envelope, usize)], env: Envelope) -> usize {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, (e, _)) in entries.iter().enumerate() {
            let grown = e.union(&env);
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for (j, (o, _)) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                if let Some(x) = e.intersection(o) {
                    overlap_before += x.area();
                }
                if let Some(x) = grown.intersection(o) {
                    overlap_after += x.area();
                }
            }
            let key = (overlap_after - overlap_before, grown.area() - e.area(), e.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Recomputes the parent-entry envelopes along `path`, bottom-up.
    fn refresh_upward(&mut self, path: &[usize]) {
        for i in (1..path.len()).rev() {
            let child = path[i];
            let env = self.nodes[child].envelope();
            if let Node::Internal { entries } = &mut self.nodes[path[i - 1]] {
                if let Some(e) = entries.iter_mut().find(|(_, c)| *c == child) {
                    e.0 = env;
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
                    let split_at = rstar_split_point(entries, min, |e| e.0);
                    Node::Leaf { entries: entries.split_off(split_at) }
                }
                Node::Internal { entries } => {
                    let split_at = rstar_split_point(entries, min, |e| e.0);
                    Node::Internal { entries: entries.split_off(split_at) }
                }
            };
            let new_env = new_node.envelope();
            let old_env = self.nodes[node_id].envelope();
            let new_id = self.nodes.len();
            self.nodes.push(new_node);

            if is_root {
                let root = Node::Internal { entries: vec![(old_env, node_id), (new_env, new_id)] };
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
                    e.0 = old_env;
                }
                entries.push((new_env, new_id));
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
        let center = match self.nodes[node_id].envelope().center() {
            Some(c) => c,
            None => return,
        };
        let p = self.config.reinsert_count.min(self.nodes[node_id].len() / 2).max(1);
        let removed: Vec<(Envelope, Entry<T>)> = match &mut self.nodes[node_id] {
            Node::Leaf { entries } => {
                sort_by_center_distance_leaf(entries, center);
                entries.drain(entries.len() - p..).map(|(e, v)| (e, Entry::Leaf(v))).collect()
            }
            Node::Internal { entries } => {
                sort_by_center_distance_node(entries, center);
                entries.drain(entries.len() - p..).map(|(e, v)| (e, Entry::Node(v))).collect()
            }
        };
        self.refresh_upward(path);
        for (env, entry) in removed {
            self.insert_entry(env, entry, level, reinserted);
        }
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Builds a tree from scratch with Sort-Tile-Recursive packing: each
    /// level is sorted by center x, tiled into vertical slices, each slice
    /// sorted by center y and packed into nodes of `max_entries`, until
    /// one node remains.
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
            pager: None,
            spilled: HashSet::new(),
            decoder: None,
            leaf_cache: Mutex::new(HashMap::new()),
        };
        let mut level_ids: Vec<usize> = Vec::new();
        str_pack(&mut items, cap, |entries| {
            level_ids.push(tree.nodes.len());
            tree.nodes.push(Node::Leaf { entries });
        });
        while level_ids.len() > 1 {
            tree.height += 1;
            let mut upper: Vec<(Envelope, usize)> =
                level_ids.iter().map(|&id| (tree.nodes[id].envelope(), id)).collect();
            level_ids.clear();
            str_pack(&mut upper, cap, |entries| {
                level_ids.push(tree.nodes.len());
                tree.nodes.push(Node::Internal { entries });
            });
        }
        tree.root = level_ids[0];
        tree
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes one entry matching `env` exactly for which `pred` returns
    /// true. Returns the removed payload, if any. Underfull nodes are
    /// condensed by reinserting their entries, recursively up the tree.
    /// Faults any spilled leaves back in first.
    pub fn remove(&mut self, env: &Envelope, pred: impl Fn(&T) -> bool) -> Option<T> {
        self.unspill();
        let path = self.find_leaf_path(self.root, env, &pred)?;
        let leaf = *path.last().expect("path never empty");
        let removed = match &mut self.nodes[leaf] {
            Node::Leaf { entries } => {
                let pos = entries.iter().position(|(e, v)| e == env && pred(v))?;
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
            let orphans: Vec<(Envelope, Entry<T>)> = match &mut self.nodes[node_id] {
                Node::Leaf { entries } => {
                    std::mem::take(entries).into_iter().map(|(e, v)| (e, Entry::Leaf(v))).collect()
                }
                Node::Internal { entries } => {
                    std::mem::take(entries).into_iter().map(|(e, c)| (e, Entry::Node(c))).collect()
                }
            };
            for (env, entry) in orphans {
                let mut reinserted = vec![false; self.height + 1];
                self.insert_entry(env, entry, level, &mut reinserted);
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
        env: &Envelope,
        pred: &impl Fn(&T) -> bool,
    ) -> Option<Vec<usize>> {
        match &self.nodes[node_id] {
            Node::Leaf { entries } => {
                entries.iter().any(|(e, v)| e == env && pred(v)).then(|| vec![node_id])
            }
            Node::Internal { entries } => {
                for (e, child) in entries {
                    if e.contains_envelope(env) {
                        if let Some(mut path) = self.find_leaf_path(*child, env, pred) {
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

    /// Calls `visit` for every entry whose envelope intersects `window`.
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

    /// Collects the payloads of every entry intersecting `window`.
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
                for (e, v) in self.leaf_entries(node_id).iter() {
                    if e.intersects(window) {
                        visit(e, v);
                    }
                }
            }
            Node::Internal { entries } => {
                for (e, child) in entries {
                    if e.intersects(window) {
                        self.query_rec(*child, window, visit, nodes_visited);
                    }
                }
            }
        }
    }

    /// Best-first k-nearest-neighbour search from `query`, by envelope
    /// distance. Returns `(distance, payload)` pairs in ascending order.
    pub fn nearest(&self, query: Coord, k: usize) -> Vec<(f64, T)> {
        self.nearest_probe(query, k).0
    }

    /// [`RTree::nearest`] that also reports how many tree nodes the
    /// best-first search expanded and how many results it produced.
    pub fn nearest_probe(&self, query: Coord, k: usize) -> (Vec<(f64, T)>, crate::ProbeStats) {
        #[derive(PartialEq)]
        struct Cand {
            dist: f64,
            node: Option<usize>, // None = leaf entry
            entry: usize,
        }
        impl Eq for Cand {}
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap.
                other.dist.total_cmp(&self.dist)
            }
        }
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut stats = crate::ProbeStats::default();
        let mut out: Vec<(f64, T)> = Vec::with_capacity(k);
        if k == 0 || self.is_empty() {
            return (out, stats);
        }
        let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
        heap.push(Cand { dist: 0.0, node: Some(self.root), entry: 0 });
        while let Some(c) = heap.pop() {
            match c.node {
                Some(node_id) => {
                    stats.nodes_visited += 1;
                    match &self.nodes[node_id] {
                        Node::Internal { entries } => {
                            for (e, child) in entries {
                                heap.push(Cand {
                                    dist: e.distance_to_coord(query),
                                    node: Some(*child),
                                    entry: 0,
                                });
                            }
                        }
                        Node::Leaf { .. } => {
                            for (i, (e, _)) in self.leaf_entries(node_id).iter().enumerate() {
                                heap.push(Cand {
                                    dist: e.distance_to_coord(query),
                                    node: None,
                                    entry: i | (node_id << 32),
                                });
                            }
                        }
                    }
                }
                None => {
                    let node_id = c.entry >> 32;
                    let i = c.entry & 0xFFFF_FFFF;
                    if matches!(&self.nodes[node_id], Node::Leaf { .. }) {
                        stats.candidates += 1;
                        out.push((c.dist, self.leaf_entries(node_id)[i].1.clone()));
                        if out.len() == k {
                            break;
                        }
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

/// One STR level: sorts `items` by center x, tiles them into about
/// `sqrt(len / cap)` vertical slices, sorts each slice by center y and
/// hands each run of `cap` to `pack`, in order. Both sorts are stable.
fn str_pack<E: Clone>(
    items: &mut [(Envelope, E)],
    cap: usize,
    mut pack: impl FnMut(Vec<(Envelope, E)>),
) {
    let slices = (items.len().div_ceil(cap) as f64).sqrt().ceil() as usize;
    let per_slice = items.len().div_ceil(slices);
    items.sort_by_cached_key(|(e, _)| total_order_key(center_x(e)));
    for slice in items.chunks_mut(per_slice) {
        slice.sort_by_cached_key(|(e, _)| total_order_key(center_y(e)));
        for run in slice.chunks(cap) {
            pack(run.to_vec());
        }
    }
}

fn sort_by_center_distance_leaf<T>(entries: &mut [(Envelope, T)], center: Coord) {
    entries.sort_by(|a, b| {
        let da = a.0.center().map_or(f64::INFINITY, |c| c.distance_sq(center));
        let db = b.0.center().map_or(f64::INFINITY, |c| c.distance_sq(center));
        da.total_cmp(&db)
    });
}

fn sort_by_center_distance_node(entries: &mut [(Envelope, usize)], center: Coord) {
    entries.sort_by(|a, b| {
        let da = a.0.center().map_or(f64::INFINITY, |c| c.distance_sq(center));
        let db = b.0.center().map_or(f64::INFINITY, |c| c.distance_sq(center));
        da.total_cmp(&db)
    });
}

fn pick_min_enlargement(entries: &[(Envelope, usize)], env: Envelope) -> usize {
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, (e, _)) in entries.iter().enumerate() {
        let grown = e.union(&env);
        let key = (grown.area() - e.area(), e.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Sorts `entries` in place along the better split axis and returns the
/// index at which to split, following the R\*-tree margin/overlap rule.
fn rstar_split_point<T>(
    entries: &mut [(Envelope, T)],
    min_entries: usize,
    env_of: impl Fn(&(Envelope, T)) -> Envelope,
) -> usize {
    let total = entries.len();
    let upper = total - min_entries;

    // For each axis, compute the total margin over all valid distributions.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..2 {
        sort_axis(entries, axis, &env_of);
        let (prefix, suffix) = envelope_scans(entries, &env_of);
        let mut margin_sum = 0.0;
        for split in min_entries..=upper {
            margin_sum += prefix[split - 1].margin() + suffix[split].margin();
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }
    sort_axis(entries, best_axis, &env_of);
    let (prefix, suffix) = envelope_scans(entries, &env_of);
    let mut best_split = min_entries;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for split in min_entries..=upper {
        let left = prefix[split - 1];
        let right = suffix[split];
        let overlap = left.intersection(&right).map_or(0.0, |e| e.area());
        let key = (overlap, left.area() + right.area());
        if key < best_key {
            best_key = key;
            best_split = split;
        }
    }
    best_split
}

fn sort_axis<T>(
    entries: &mut [(Envelope, T)],
    axis: usize,
    env_of: &impl Fn(&(Envelope, T)) -> Envelope,
) {
    entries.sort_by(|a, b| {
        let (ea, eb) = (env_of(a), env_of(b));
        if axis == 0 {
            ea.min_x.total_cmp(&eb.min_x).then(ea.max_x.total_cmp(&eb.max_x))
        } else {
            ea.min_y.total_cmp(&eb.min_y).then(ea.max_y.total_cmp(&eb.max_y))
        }
    });
}

/// Prefix/suffix running envelopes of a sorted entry list.
fn envelope_scans<T>(
    entries: &[(Envelope, T)],
    env_of: &impl Fn(&(Envelope, T)) -> Envelope,
) -> (Vec<Envelope>, Vec<Envelope>) {
    let n = entries.len();
    let mut prefix = vec![Envelope::EMPTY; n];
    let mut acc = Envelope::EMPTY;
    for (i, e) in entries.iter().enumerate() {
        acc.expand_to_include(&env_of(e));
        prefix[i] = acc;
    }
    let mut suffix = vec![Envelope::EMPTY; n];
    let mut acc = Envelope::EMPTY;
    for i in (0..n).rev() {
        acc.expand_to_include(&env_of(&entries[i]));
        suffix[i] = acc;
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn insert_and_window_query() {
        let mut t: RTree<usize> = RTree::default();
        for (e, v) in cloud(500) {
            t.insert(e, v);
        }
        assert_eq!(t.len(), 500);
        let window = Envelope::new(100.0, 100.0, 300.0, 300.0);
        let mut got = t.window(&window);
        got.sort_unstable();
        // Compare against brute force.
        let mut want: Vec<usize> =
            cloud(500).into_iter().filter(|(e, _)| window.intersects(e)).map(|(_, v)| v).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = cloud(2000);
        let t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        assert_eq!(t.len(), 2000);
        for window in [
            Envelope::new(0.0, 0.0, 50.0, 50.0),
            Envelope::new(500.0, 500.0, 700.0, 900.0),
            Envelope::new(999.0, 999.0, 1000.0, 1000.0),
            Envelope::new(-10.0, -10.0, -5.0, -5.0),
        ] {
            let mut got = t.window(&window);
            got.sort_unstable();
            let mut want: Vec<usize> =
                items.iter().filter(|(e, _)| window.intersects(e)).map(|(_, v)| *v).collect();
            want.sort_unstable();
            assert_eq!(got, want, "window {window:?}");
        }
    }

    /// The STR build as it sorted before its keys: `sort_by` on
    /// `total_cmp`, once per comparison — the reference `bulk_load` must
    /// match node for node.
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
        for entries in level(&mut items, cap) {
            ids.push(tree.nodes.len());
            tree.nodes.push(Node::Leaf { entries });
        }
        while ids.len() > 1 {
            tree.height += 1;
            let mut upper: Vec<(Envelope, usize)> =
                ids.iter().map(|&id| (tree.nodes[id].envelope(), id)).collect();
            ids.clear();
            for entries in level(&mut upper, cap) {
                ids.push(tree.nodes.len());
                tree.nodes.push(Node::Internal { entries });
            }
        }
        tree.root = ids[0];
        tree
    }

    /// A node as bits, so that NaN envelopes compare equal to themselves.
    fn node_bits(node: &Node<usize>) -> (bool, Vec<([u64; 4], usize)>) {
        let bits = |(e, v): &(Envelope, usize)| {
            ([e.min_x, e.min_y, e.max_x, e.max_y].map(f64::to_bits), *v)
        };
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
        let mut dists: Vec<f64> = items.iter().map(|(e, _)| e.distance_to_coord(q)).collect();
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
    fn leaf_codec_roundtrip_preserves_payloads_and_empty_envelopes() {
        let entries: Vec<(Envelope, RowId)> = vec![
            (Envelope::new(1.0, 2.0, 3.0, 4.0), RowId { page: 0, slot: 0 }),
            (Envelope::EMPTY, RowId { page: 7, slot: 3 }),
            (Envelope::new(-5.5, -6.5, -1.0, 0.0), RowId { page: u32::MAX, slot: u16::MAX }),
        ];
        let bytes = encode_leaf(&entries);
        let back = decode_leaf::<RowId>(&bytes).expect("decodes");
        assert_eq!(back, entries);
        // EMPTY must survive bit-exactly (Envelope::new would normalize it).
        assert!(back[1].0.min_x.is_infinite() && back[1].0.max_x.is_infinite());
        // Truncated images are rejected, not misread.
        assert!(decode_leaf::<RowId>(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_leaf::<RowId>(&[]).is_none());
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
        assert!(t.has_pager());

        // Cold probe: leaves come back through the pager.
        let mut got = t.window(&window);
        got.sort_unstable();
        assert_eq!(got, want_window);
        assert!(pager.reads.load(std::sync::atomic::Ordering::Relaxed) > 0);

        // Warm probe: cached decodes, same answers.
        let reads_before = pager.reads.load(std::sync::atomic::Ordering::Relaxed);
        let mut warm = t.window(&window);
        warm.sort_unstable();
        assert_eq!(warm, want_window);
        assert_eq!(pager.reads.load(std::sync::atomic::Ordering::Relaxed), reads_before);

        // Cold switch drops the decoded cache; answers still match.
        t.clear_leaf_cache();
        assert_eq!(t.nearest(Coord::new(500.0, 500.0), 25), want_knn);
        assert!(pager.reads.load(std::sync::atomic::Ordering::Relaxed) > reads_before);

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
