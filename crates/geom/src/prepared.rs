//! Prepared geometries: one-time edge indexes that accelerate repeated
//! exact queries against the same polygon or polyline.
//!
//! The JTS/GEOS `PreparedGeometry` idea: when one geometry is probed many
//! times (the inner side of a spatial join, a ring queried per segment of
//! a long line), pay an O(n log n)-ish build once and answer each probe
//! by touching only the edges that can matter. Two structures do the
//! work:
//!
//! * [`ChainSet`] — monotone-chain decomposition of a polyline plus a
//!   small static envelope tree over the chains, for *segment
//!   intersection* candidate retrieval;
//! * y-slab edge bins inside [`PreparedRing`], for *point location*
//!   probes replacing the linear ray cast of
//!   [`locate_in_ring`](crate::algorithms::locate::locate_in_ring).
//!
//! # Exactness contract
//!
//! Everything here is a *candidate filter* in front of the same exact
//! predicates the naive code calls ([`orient2d`], [`point_on_segment`],
//! [`segment_intersection`](crate::algorithms::segment::segment_intersection)).
//! A pair pruned by an index is pruned only when the exact predicate is
//! *proven* to contribute nothing (see the per-prune comments), so every
//! result is bit-identical to the unindexed path. `tests/prepared_equivalence.rs`
//! checks this end to end over the snapped corpus of `tests/common/shapes.rs`.

use crate::algorithms::line_split::{split_line_core, LinePortion};
use crate::algorithms::locate::Location;
use crate::algorithms::orientation::{orient2d, Orientation};
use crate::algorithms::segment::point_on_segment;
use crate::polygon::Ring;
use crate::{Coord, Envelope, LineString, Polygon};

/// Fan-out of the implicit static envelope tree over monotone chains.
const TREE_FANOUT: usize = 8;

/// Maximum number of y-slabs in a ring's point-location bins.
const MAX_BINS: usize = 2048;

fn sign(d: f64) -> i8 {
    if d > 0.0 {
        1
    } else if d < 0.0 {
        -1
    } else {
        0
    }
}

/// Merges a chain's running direction sign with the next edge's sign.
/// `0` (flat in that axis) is compatible with anything.
fn combine(chain: i8, edge: i8) -> Option<i8> {
    if chain == 0 {
        Some(edge)
    } else if edge == 0 || edge == chain {
        Some(chain)
    } else {
        None
    }
}

/// A maximal run of edges monotone in **both** axes.
#[derive(Clone, Copy, Debug)]
struct Chain {
    /// First coordinate index; the chain's edges are `(i, i + 1)` for
    /// `i` in `start..end`.
    start: u32,
    /// Last coordinate index (inclusive).
    end: u32,
    /// `true` when `x` is non-decreasing along the chain.
    x_asc: bool,
}

/// Monotone-chain decomposition of a polyline (open, or a closed ring)
/// with a static envelope tree over the chains.
///
/// Because a chain is monotone in both axes, the edges whose x-interval
/// overlaps a query window form one contiguous run, found by binary
/// search — so a candidate query costs tree descent plus the run length,
/// instead of the full edge count.
#[derive(Clone, Debug)]
pub struct ChainSet {
    coords: Vec<Coord>,
    chains: Vec<Chain>,
    /// `levels[0]` holds one envelope per chain; each level above unions
    /// groups of [`TREE_FANOUT`] envelopes of the level below, ending in
    /// a root level of at most [`TREE_FANOUT`] entries.
    levels: Vec<Vec<Envelope>>,
    env: Envelope,
}

impl ChainSet {
    /// Builds the decomposition over a coordinate sequence (at least two
    /// coordinates, or empty; consecutive duplicates not required absent
    /// but produce harmless zero-length chains splits).
    pub fn new(coords: &[Coord]) -> ChainSet {
        let mut chains: Vec<Chain> = Vec::new();
        if coords.len() >= 2 {
            let mut start = 0usize;
            let (mut sx, mut sy) = (0i8, 0i8);
            for i in 0..coords.len() - 1 {
                let ex = sign(coords[i + 1].x - coords[i].x);
                let ey = sign(coords[i + 1].y - coords[i].y);
                match (combine(sx, ex), combine(sy, ey)) {
                    (Some(nx), Some(ny)) => {
                        sx = nx;
                        sy = ny;
                    }
                    _ => {
                        chains.push(Chain { start: start as u32, end: i as u32, x_asc: sx >= 0 });
                        start = i;
                        sx = ex;
                        sy = ey;
                    }
                }
            }
            chains.push(Chain {
                start: start as u32,
                end: (coords.len() - 1) as u32,
                x_asc: sx >= 0,
            });
        }
        let leaf: Vec<Envelope> = chains
            .iter()
            .map(|c| Envelope::from_coords(coords[c.start as usize..=c.end as usize].iter()))
            .collect();
        let mut levels = vec![leaf];
        while levels.last().expect("non-empty").len() > TREE_FANOUT {
            let prev = levels.last().expect("non-empty");
            let next: Vec<Envelope> = prev
                .chunks(TREE_FANOUT)
                .map(|group| {
                    let mut e = group[0];
                    for g in &group[1..] {
                        e.expand_to_include(g);
                    }
                    e
                })
                .collect();
            levels.push(next);
        }
        ChainSet {
            coords: coords.to_vec(),
            chains,
            levels,
            env: Envelope::from_coords(coords.iter()),
        }
    }

    /// Builds the decomposition over a linestring's coordinates.
    pub fn from_linestring(line: &LineString) -> ChainSet {
        ChainSet::new(line.coords())
    }

    /// Envelope of the whole polyline.
    pub fn envelope(&self) -> &Envelope {
        &self.env
    }

    /// Calls `f` with every edge whose envelope intersects `qenv` —
    /// possibly a few more, never fewer. Pruned edges are envelope-disjoint
    /// from `qenv`, so the exact segment predicates would classify them as
    /// non-interacting anyway; callers may treat the emitted set as
    /// equivalent to a full scan.
    pub fn for_candidate_edges(&self, qenv: &Envelope, f: &mut dyn FnMut(Coord, Coord)) {
        if self.chains.is_empty() || !self.env.intersects(qenv) {
            return;
        }
        let top = self.levels.len() - 1;
        let mut stack: Vec<(usize, usize)> =
            (0..self.levels[top].len()).map(|i| (top, i)).collect();
        while let Some((lvl, i)) = stack.pop() {
            if !self.levels[lvl][i].intersects(qenv) {
                continue;
            }
            if lvl == 0 {
                self.chain_candidates(i, qenv, f);
            } else {
                let lo = i * TREE_FANOUT;
                let hi = (lo + TREE_FANOUT).min(self.levels[lvl - 1].len());
                for j in lo..hi {
                    stack.push((lvl - 1, j));
                }
            }
        }
    }

    /// Emits the contiguous run of a chain's edges whose x-interval
    /// overlaps `qenv` (binary search on the monotone x sequence), then
    /// filters each by y-overlap. Both tests use the same closed
    /// comparisons as [`Envelope::intersects`].
    fn chain_candidates(&self, ci: usize, qenv: &Envelope, f: &mut dyn FnMut(Coord, Coord)) {
        let ch = self.chains[ci];
        let (s, e) = (ch.start as usize, ch.end as usize);
        let cs = &self.coords;
        // Edge i spans coords[i]..coords[i+1] for i in s..e.
        let (lo, hi) = if ch.x_asc {
            // x non-decreasing: edge max-x is coords[i+1].x, min-x is coords[i].x.
            let lo = s + cs[s + 1..=e].partition_point(|c| c.x < qenv.min_x);
            let hi = s + cs[s..e].partition_point(|c| c.x <= qenv.max_x);
            (lo, hi)
        } else {
            // x non-increasing: edge max-x is coords[i].x, min-x is coords[i+1].x.
            let lo = s + cs[s + 1..=e].partition_point(|c| c.x > qenv.max_x);
            let hi = s + cs[s..e].partition_point(|c| c.x >= qenv.min_x);
            (lo, hi)
        };
        for i in lo..hi {
            let (a, b) = (cs[i], cs[i + 1]);
            let (yl, yh) = if a.y <= b.y { (a.y, b.y) } else { (b.y, a.y) };
            if yh >= qenv.min_y && yl <= qenv.max_y {
                f(a, b);
            }
        }
    }
}

/// Y-slab bins over a ring's edges for point-location probes. An edge
/// whose y-range spans `[lo, hi]` is inserted into every bin overlapping
/// that range, so `bin(p.y)` holds **all** edges that can contain `p` or
/// cross its rightward ray — the two things the ray cast looks at.
#[derive(Clone, Debug)]
struct EdgeBins {
    edges: Vec<(Coord, Coord)>,
    bins: Vec<Vec<u32>>,
    min_y: f64,
    /// Bins-per-unit-y. `0.0` means a single bin (degenerate height).
    inv_h: f64,
}

impl EdgeBins {
    fn new(ring: &[Coord], env: &Envelope) -> EdgeBins {
        let edges: Vec<(Coord, Coord)> = ring.windows(2).map(|w| (w[0], w[1])).collect();
        let want = (edges.len() / 4).clamp(1, MAX_BINS);
        let height = env.max_y - env.min_y;
        let (nbins, inv_h) =
            if height > 0.0 && want > 1 { (want, want as f64 / height) } else { (1, 0.0) };
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); nbins];
        for (idx, &(a, b)) in edges.iter().enumerate() {
            let (lo, hi) = if a.y <= b.y { (a.y, b.y) } else { (b.y, a.y) };
            let bl = Self::index_of(lo, env.min_y, inv_h, nbins);
            let bh = Self::index_of(hi, env.min_y, inv_h, nbins);
            for bin in bins.iter_mut().take(bh + 1).skip(bl) {
                bin.push(idx as u32);
            }
        }
        EdgeBins { edges, bins, min_y: env.min_y, inv_h }
    }

    fn index_of(y: f64, min_y: f64, inv_h: f64, nbins: usize) -> usize {
        if inv_h == 0.0 {
            return 0;
        }
        // Negative values cast to 0; clamp the top end.
        (((y - min_y) * inv_h) as usize).min(nbins - 1)
    }

    fn candidates(&self, y: f64) -> &[u32] {
        &self.bins[Self::index_of(y, self.min_y, self.inv_h, self.bins.len())]
    }
}

/// A ring with both indexes built: chains for segment queries, bins for
/// point location.
#[derive(Clone, Debug)]
pub struct PreparedRing {
    chains: ChainSet,
    bins: EdgeBins,
    env: Envelope,
}

impl PreparedRing {
    /// Prepares a closed ring.
    pub fn new(ring: &Ring) -> PreparedRing {
        let coords = ring.coords();
        let env = Envelope::from_coords(coords.iter());
        PreparedRing { chains: ChainSet::new(coords), bins: EdgeBins::new(coords, &env), env }
    }

    /// The segment-query index over the ring's boundary edges.
    pub fn chains(&self) -> &ChainSet {
        &self.chains
    }

    /// Locates `p` relative to the closed region bounded by the ring.
    /// Bit-identical to
    /// [`locate_in_ring`](crate::algorithms::locate::locate_in_ring).
    ///
    /// Every prune below is exact, not approximate:
    /// * **envelope reject** — a point outside the ring's envelope is on
    ///   no edge ([`point_on_segment`] requires the point inside the edge
    ///   bounds) and its rightward-ray crossing count is even (above or
    ///   below: no edge straddles `p.y`; right: every straddling edge has
    ///   `p` strictly on its right, which the crossing rule rejects;
    ///   left: up- and down-crossings pair up on a closed ring), so the
    ///   parity answer is Exterior either way;
    /// * **strictly right of an edge** (`max x < p.x`) — not on it, and
    ///   not counted by the crossing rule (same right-side argument);
    /// * **strictly left of a straddling edge** (`min x > p.x`) — not on
    ///   it, and *always* counted: an upward edge with `p` strictly to
    ///   its left is exactly the counter-clockwise case, a downward edge
    ///   the clockwise case, so the `orient2d` call is skipped with its
    ///   outcome known.
    pub fn locate(&self, p: Coord) -> Location {
        if !self.env.contains_coord(p) {
            return Location::Exterior;
        }
        let mut crossings = 0u32;
        for &ei in self.bins.candidates(p.y) {
            let (a, b) = self.bins.edges[ei as usize];
            let (xl, xh) = if a.x <= b.x { (a.x, b.x) } else { (b.x, a.x) };
            if xh < p.x {
                continue;
            }
            let upward = a.y <= p.y && b.y > p.y;
            let downward = b.y <= p.y && a.y > p.y;
            if xl > p.x {
                if upward || downward {
                    crossings += 1;
                }
                continue;
            }
            if point_on_segment(p, a, b) {
                return Location::Boundary;
            }
            if upward {
                if orient2d(a, b, p) == Orientation::CounterClockwise {
                    crossings += 1;
                }
            } else if downward && orient2d(a, b, p) == Orientation::Clockwise {
                crossings += 1;
            }
        }
        if crossings % 2 == 1 {
            Location::Interior
        } else {
            Location::Exterior
        }
    }
}

/// A polygon with every ring prepared, the unit the engine's prepared
/// cache stores and the relate fast paths consume.
#[derive(Clone, Debug)]
pub struct PreparedPolygon {
    poly: Polygon,
    exterior: PreparedRing,
    holes: Vec<PreparedRing>,
    env: Envelope,
}

impl PreparedPolygon {
    /// Prepares every ring of `poly`.
    pub fn new(poly: &Polygon) -> PreparedPolygon {
        PreparedPolygon {
            exterior: PreparedRing::new(poly.exterior()),
            holes: poly.holes().iter().map(PreparedRing::new).collect(),
            env: poly.envelope(),
            poly: poly.clone(),
        }
    }

    /// The underlying polygon.
    pub fn polygon(&self) -> &Polygon {
        &self.poly
    }

    /// The polygon's envelope.
    pub fn envelope(&self) -> &Envelope {
        &self.env
    }

    /// The prepared exterior ring.
    pub fn exterior(&self) -> &PreparedRing {
        &self.exterior
    }

    /// The prepared hole rings.
    pub fn holes(&self) -> &[PreparedRing] {
        &self.holes
    }

    /// Locates `p` relative to the polygon (holes handled). Bit-identical
    /// to [`locate_in_polygon`](crate::algorithms::locate::locate_in_polygon):
    /// same envelope reject, same ring order, same hole short-circuits.
    pub fn locate(&self, p: Coord) -> Location {
        if !self.env.contains_coord(p) {
            return Location::Exterior;
        }
        match self.exterior.locate(p) {
            Location::Exterior => Location::Exterior,
            Location::Boundary => Location::Boundary,
            Location::Interior => {
                for hole in &self.holes {
                    match hole.locate(p) {
                        Location::Interior => return Location::Exterior,
                        Location::Boundary => return Location::Boundary,
                        Location::Exterior => {}
                    }
                }
                Location::Interior
            }
        }
    }

    /// Calls `f` with every boundary edge (all rings) whose envelope
    /// intersects `qenv` — a superset filter, see
    /// [`ChainSet::for_candidate_edges`].
    pub fn for_boundary_candidates(&self, qenv: &Envelope, f: &mut dyn FnMut(Coord, Coord)) {
        self.exterior.chains.for_candidate_edges(qenv, f);
        for hole in &self.holes {
            hole.chains.for_candidate_edges(qenv, f);
        }
    }

    /// Splits `line` by the polygon's boundary and classifies the pieces.
    /// Bit-identical to
    /// [`split_line_by_polygon`](crate::algorithms::line_split::split_line_by_polygon):
    /// both run the same splitting core; this one feeds it indexed
    /// candidate edges and the indexed locator.
    pub fn split_line(&self, line: &LineString) -> Vec<LinePortion> {
        split_line_core(
            line,
            &self.env,
            |seg_env, f| self.for_boundary_candidates(seg_env, f),
            |p| self.locate(p),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::line_split::split_line_by_polygon;
    use crate::algorithms::locate::{locate_in_polygon, locate_in_ring};

    /// Tiny deterministic generator (xorshift64*), no external crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        /// Uniform in `[0, n)`.
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A star-shaped ring with `n` vertices on a deterministic jittered
    /// radius, grid-snapped so collinear and boundary-touching probes
    /// actually occur.
    fn star_ring(rng: &mut Rng, n: usize) -> Ring {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let ang = (i as f64) / (n as f64) * std::f64::consts::TAU;
                let r = 8.0 + (rng.below(64) as f64) / 8.0;
                // Snap to a 0.25 grid: exact arithmetic, collinear runs.
                let x = (r * ang.cos() * 4.0).round() / 4.0;
                let y = (r * ang.sin() * 4.0).round() / 4.0;
                (x, y)
            })
            .collect();
        Ring::from_xy(&pts).expect("valid ring")
    }

    #[test]
    fn convex_ring_has_few_chains() {
        let pts: Vec<(f64, f64)> = (0..64)
            .map(|i| {
                let ang = (i as f64) / 64.0 * std::f64::consts::TAU;
                (10.0 * ang.cos(), 10.0 * ang.sin())
            })
            .collect();
        let ring = Ring::from_xy(&pts).unwrap();
        let chains = ChainSet::new(ring.coords());
        assert!(chains.chains.len() <= 5, "convex ring split into {}", chains.chains.len());
    }

    #[test]
    fn candidates_are_a_superset_of_env_intersecting_edges() {
        let mut rng = Rng(0x5eed_0001);
        for _ in 0..20 {
            let ring = star_ring(&mut rng, 40);
            let chains = ChainSet::new(ring.coords());
            for _ in 0..50 {
                let x0 = (rng.below(120) as f64) / 4.0 - 15.0;
                let y0 = (rng.below(120) as f64) / 4.0 - 15.0;
                let qenv = Envelope::new(x0, y0, x0 + 3.0, y0 + 2.0);
                let mut got: Vec<(Coord, Coord)> = Vec::new();
                chains.for_candidate_edges(&qenv, &mut |a, b| got.push((a, b)));
                for (a, b) in ring.segments() {
                    let eenv = Envelope::from_coords([a, b].iter());
                    if eenv.intersects(&qenv) {
                        assert!(
                            got.contains(&(a, b)),
                            "edge {a:?}-{b:?} missing for window {qenv:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_ring_locate_matches_naive() {
        let mut rng = Rng(0x5eed_0002);
        for _ in 0..20 {
            let ring = star_ring(&mut rng, 48);
            let prepared = PreparedRing::new(&ring);
            // Grid probes (hits vertices and edges exactly) plus every vertex.
            let mut probes: Vec<Coord> = Vec::new();
            for ix in -60..=60 {
                for iy in -60..=60 {
                    probes.push(Coord::new(ix as f64 / 4.0, iy as f64 / 4.0));
                }
            }
            probes.extend_from_slice(ring.coords());
            for p in probes {
                assert_eq!(
                    prepared.locate(p),
                    locate_in_ring(p, ring.coords()),
                    "probe {p:?} disagrees"
                );
            }
        }
    }

    #[test]
    fn prepared_polygon_locate_matches_naive_with_holes() {
        let outer = Ring::from_xy(&[(0.0, 0.0), (16.0, 0.0), (16.0, 16.0), (0.0, 16.0)]).unwrap();
        let h1 = Ring::from_xy(&[(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0)]).unwrap();
        let h2 = Ring::from_xy(&[(8.0, 8.0), (14.0, 8.0), (14.0, 14.0), (8.0, 14.0)]).unwrap();
        let poly = Polygon::new(outer, vec![h1, h2]);
        let prepared = PreparedPolygon::new(&poly);
        for ix in -4..=68 {
            for iy in -4..=68 {
                let p = Coord::new(ix as f64 / 4.0, iy as f64 / 4.0);
                assert_eq!(prepared.locate(p), locate_in_polygon(p, &poly), "probe {p:?}");
            }
        }
    }

    #[test]
    fn prepared_split_line_matches_naive() {
        let mut rng = Rng(0x5eed_0003);
        for _ in 0..10 {
            let ring = star_ring(&mut rng, 32);
            let poly = Polygon::new(ring, vec![]);
            let prepared = PreparedPolygon::new(&poly);
            for _ in 0..20 {
                let x0 = (rng.below(160) as f64) / 4.0 - 20.0;
                let y0 = (rng.below(160) as f64) / 4.0 - 20.0;
                let x1 = (rng.below(160) as f64) / 4.0 - 20.0;
                let y1 = (rng.below(160) as f64) / 4.0 - 20.0;
                if x0 == x1 && y0 == y1 {
                    continue;
                }
                let line =
                    LineString::from_xy(&[(x0, y0), (x1, y1), (x1 + 2.0, y1 + 0.5)]).unwrap();
                assert_eq!(
                    prepared.split_line(&line),
                    split_line_by_polygon(&line, &poly),
                    "line ({x0},{y0})-({x1},{y1}) split differs"
                );
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = ChainSet::new(&[]);
        assert_eq!(empty.chains.len(), 0);
        let mut hits = 0;
        empty.for_candidate_edges(&Envelope::new(0.0, 0.0, 1.0, 1.0), &mut |_, _| hits += 1);
        assert_eq!(hits, 0);

        // A horizontal ring envelope (degenerate height) is impossible for
        // a valid Ring, but a flat-ish one exercises the single-bin path.
        let flat = Ring::from_xy(&[(0.0, 0.0), (8.0, 0.0), (8.0, 0.25), (0.0, 0.25)]).unwrap();
        let prepared = PreparedRing::new(&flat);
        assert_eq!(prepared.locate(Coord::new(4.0, 0.125)), Location::Interior);
        assert_eq!(prepared.locate(Coord::new(4.0, 0.25)), Location::Boundary);
        assert_eq!(prepared.locate(Coord::new(4.0, 1.0)), Location::Exterior);
    }
}
