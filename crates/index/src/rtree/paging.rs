//! Spilled leaves: the pager a built tree writes its leaves to, the leaf
//! codec, and the one read path queries take back through the pager.

use super::{Node, RTree};
use jackpine_geom::Envelope;
use jackpine_storage::RowId;
use std::borrow::Cow;
use std::collections::HashSet;
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

/// The entries of one leaf.
type LeafEntries<T> = Vec<(Envelope, T)>;
/// Decodes a spilled leaf's page image.
type LeafDecoder<T> = fn(&[u8]) -> Option<LeafEntries<T>>;

/// Everything a tree knows about its spilled leaves: one field of
/// [`RTree`]. A spilled leaf lives only in the pager: each visit reads
/// and decodes it, and the decoded entries go when the visit ends.
pub(super) struct Paging<T> {
    /// Backing store for spilled leaves, when attached.
    pager: Option<Arc<dyn LeafPager>>,
    /// Node ids whose leaf entries currently live in the pager.
    spilled: HashSet<usize>,
    /// Decoder captured (monomorphized) at spill time, so query paths
    /// need no `T: LeafPayload` bound.
    decoder: Option<LeafDecoder<T>>,
}

impl<T> Default for Paging<T> {
    fn default() -> Self {
        Paging { pager: None, spilled: HashSet::new(), decoder: None }
    }
}

/// Clones share the pager and the spilled state.
impl<T> Clone for Paging<T> {
    fn clone(&self) -> Self {
        Paging { pager: self.pager.clone(), spilled: self.spilled.clone(), decoder: self.decoder }
    }
}

impl<T: Clone> RTree<T> {
    /// Attaches the pager spilled leaves are written to and read from.
    pub fn attach_pager(&mut self, pager: Arc<dyn LeafPager>) {
        self.paging.pager = Some(pager);
    }

    /// Number of leaves currently spilled (diagnostics).
    pub fn spilled_leaves(&self) -> usize {
        self.paging.spilled.len()
    }

    /// Serializes every leaf into the attached pager in node-id order
    /// (STR order after a bulk load) and drops the resident entry
    /// vectors; inner nodes stay. A no-op without a pager, and for trees
    /// of height 0 (the root is the only leaf — not worth paging).
    pub fn spill_leaves(&mut self)
    where
        T: LeafPayload,
    {
        let Some(pager) = self.paging.pager.clone() else { return };
        if self.height == 0 {
            return;
        }
        self.paging.decoder = Some(decode_leaf::<T>);
        for (id, node) in self.nodes.iter_mut().enumerate() {
            if let Node::Leaf { entries } = node {
                if entries.is_empty() {
                    continue;
                }
                let taken = std::mem::take(entries);
                pager.write(id as u64, &encode_leaf(&taken));
                self.paging.spilled.insert(id);
            }
        }
    }

    /// Faults every spilled leaf back into the tree (mutations need
    /// resident entry vectors). The pager stays attached so the engine
    /// can re-spill later.
    pub fn unspill(&mut self) {
        if self.paging.spilled.is_empty() {
            return;
        }
        let mut ids: Vec<usize> = self.paging.spilled.iter().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let loaded = self.load_leaf(id);
            if let Node::Leaf { entries } = &mut self.nodes[id] {
                *entries = loaded;
            }
        }
        self.paging.spilled.clear();
    }

    /// A no-op, kept for its callers (the benchmark package's leaf-fault
    /// probe calls it): nothing of a spilled leaf outlives the visit that
    /// read it, so every probe already reads through the pager.
    pub fn clear_leaf_cache(&self) {}

    /// Reads and decodes a spilled leaf's entries through the pager.
    /// Panics on a missing or undecodable image: the pager is this
    /// process's own buffer pool, so that is an invariant violation,
    /// not user-visible corruption.
    fn load_leaf(&self, node_id: usize) -> LeafEntries<T> {
        let pager = self.paging.pager.as_ref().expect("spilled leaf without a pager");
        let decoder = self.paging.decoder.expect("spilled leaf without a decoder");
        let bytes =
            pager.read(node_id as u64).unwrap_or_else(|| panic!("leaf {node_id} lost by pager"));
        decoder(&bytes).unwrap_or_else(|| panic!("leaf {node_id} undecodable"))
    }

    /// Read access to a leaf's entries: a borrow when resident, the
    /// visit's own decoded copy when the leaf is spilled.
    pub(super) fn leaf_entries(&self, node_id: usize) -> Cow<'_, [(Envelope, T)]> {
        if self.paging.spilled.contains(&node_id) {
            return Cow::Owned(self.load_leaf(node_id));
        }
        match &self.nodes[node_id] {
            Node::Leaf { entries } => Cow::Borrowed(entries),
            Node::Internal { .. } => unreachable!("leaf_entries on internal node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
