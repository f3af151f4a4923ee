//! The TIGER-like dataset generator.

use crate::names;
use crate::rng::Rng;
use jackpine_geom::{Coord, Envelope, Geometry, LineString, Point, Polygon};

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct TigerConfig {
    /// Master seed; every derived RNG mixes a table tag into it.
    pub seed: u64,
    /// Size multiplier: row counts scale linearly (1.0 ≈ a mid-size
    /// state extract).
    pub scale: f64,
}

impl Default for TigerConfig {
    fn default() -> Self {
        TigerConfig { seed: 0x6a61_636b_7069_6e65, scale: 1.0 } // "jackpine"
    }
}

/// Extent of the synthetic state (Texas-like, in lon/lat degrees).
pub const EXTENT: Envelope = Envelope { min_x: -106.0, min_y: 25.8, max_x: -93.5, max_y: 36.5 };

/// A county boundary record.
#[derive(Clone, Debug)]
pub struct County {
    /// Record id.
    pub id: i64,
    /// County name.
    pub name: String,
    /// Boundary polygon (exactly shared edges with neighbours).
    pub geom: Polygon,
}

/// A road record (TIGER "edges"): named polyline with an address range.
#[derive(Clone, Debug)]
pub struct Road {
    /// Record id.
    pub id: i64,
    /// Full street name, e.g. `N OAK ST`.
    pub name: String,
    /// 5-digit zip code of the containing county cell.
    pub zip: i64,
    /// Lowest street number on the road.
    pub from_addr: i64,
    /// Highest street number on the road.
    pub to_addr: i64,
    /// Centreline geometry.
    pub geom: LineString,
}

/// An area landmark (parks, schools, …).
#[derive(Clone, Debug)]
pub struct AreaLandmark {
    /// Record id.
    pub id: i64,
    /// Landmark name.
    pub name: String,
    /// TIGER CFCC-style category code.
    pub category: String,
    /// Footprint polygon.
    pub geom: Polygon,
}

/// A point landmark.
#[derive(Clone, Debug)]
pub struct PointLandmark {
    /// Record id.
    pub id: i64,
    /// Landmark name.
    pub name: String,
    /// TIGER CFCC-style category code.
    pub category: String,
    /// Location.
    pub geom: Point,
}

/// A water body: river band or lake polygon.
#[derive(Clone, Debug)]
pub struct AreaWater {
    /// Record id.
    pub id: i64,
    /// Water body name.
    pub name: String,
    /// Polygon (long band for rivers, blob for lakes).
    pub geom: Polygon,
}

/// The full synthetic dataset.
#[derive(Clone, Debug, Default)]
pub struct TigerDataset {
    /// County boundaries.
    pub counties: Vec<County>,
    /// Road centrelines.
    pub roads: Vec<Road>,
    /// Area landmarks.
    pub arealm: Vec<AreaLandmark>,
    /// Point landmarks.
    pub pointlm: Vec<PointLandmark>,
    /// Water bodies.
    pub areawater: Vec<AreaWater>,
}

impl TigerDataset {
    /// Generates the dataset for `config`.
    pub fn generate(config: &TigerConfig) -> TigerDataset {
        let scale = config.scale.max(0.01);
        let grid = ((8.0 * scale.sqrt()).round() as usize).clamp(2, 24);
        let (counties, xs, ys) = gen_counties(config.seed, grid);
        let roads = gen_roads(config.seed, &xs, &ys, scale);
        let arealm = gen_arealm(config.seed, scale);
        let pointlm = gen_pointlm(config.seed, scale);
        let areawater = gen_areawater(config.seed, scale);
        TigerDataset { counties, roads, arealm, pointlm, areawater }
    }

    /// Total records across all tables.
    pub fn total_rows(&self) -> usize {
        self.counties.len()
            + self.roads.len()
            + self.arealm.len()
            + self.pointlm.len()
            + self.areawater.len()
    }
}

fn rng_for(seed: u64, tag: u64) -> Rng {
    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tag))
}

fn jitter(rng: &mut Rng, amount: f64) -> f64 {
    rng.gen_range(-amount..amount)
}

/// County grid with shared jittered boundaries: each interior gridline is
/// a polyline with consistent intermediate vertices, so both neighbouring
/// counties use bitwise-identical edge geometry.
fn gen_counties(seed: u64, grid: usize) -> (Vec<County>, Vec<Vec<Coord>>, Vec<Vec<Coord>>) {
    let mut rng = rng_for(seed, 1);
    let w = EXTENT.width() / grid as f64;
    let h = EXTENT.height() / grid as f64;

    // Gridline base positions (jittered interior lines, exact borders).
    let mut xpos: Vec<f64> = (0..=grid).map(|i| EXTENT.min_x + i as f64 * w).collect();
    let mut ypos: Vec<f64> = (0..=grid).map(|j| EXTENT.min_y + j as f64 * h).collect();
    for x in xpos.iter_mut().skip(1).take(grid - 1) {
        *x += jitter(&mut rng, w * 0.12);
    }
    for y in ypos.iter_mut().skip(1).take(grid - 1) {
        *y += jitter(&mut rng, h * 0.12);
    }

    // Vertical gridlines: for column line i, the vertices at each row
    // junction plus a jittered midpoint per cell row. xs[i][k] runs south
    // to north.
    let mut vlines: Vec<Vec<Coord>> = Vec::with_capacity(grid + 1);
    for (i, &x) in xpos.iter().enumerate() {
        let interior = i > 0 && i < grid;
        let mut pts = Vec::with_capacity(2 * grid + 1);
        for j in 0..grid {
            let y0 = ypos[j];
            let y1 = ypos[j + 1];
            let xm = if interior { x + jitter(&mut rng, w * 0.06) } else { x };
            pts.push(Coord::new(x, y0));
            pts.push(Coord::new(xm, (y0 + y1) * 0.5));
        }
        pts.push(Coord::new(x, ypos[grid]));
        vlines.push(pts);
    }
    // Horizontal gridlines, west to east.
    let mut hlines: Vec<Vec<Coord>> = Vec::with_capacity(grid + 1);
    for (j, &y) in ypos.iter().enumerate() {
        let interior = j > 0 && j < grid;
        let mut pts = Vec::with_capacity(2 * grid + 1);
        for i in 0..grid {
            let x0 = xpos[i];
            let x1 = xpos[i + 1];
            let ym = if interior { y + jitter(&mut rng, h * 0.06) } else { y };
            pts.push(Coord::new(x0, y));
            pts.push(Coord::new((x0 + x1) * 0.5, ym));
        }
        pts.push(Coord::new(xpos[grid], y));
        hlines.push(pts);
    }

    // Corners must be consistent between the two line families; rebuild
    // both so that junction vertices come from (xpos, ypos) exactly —
    // they already do by construction above.

    let mut counties = Vec::with_capacity(grid * grid);
    let mut id = 1i64;
    for j in 0..grid {
        for i in 0..grid {
            // Ring: south edge west→east, east edge south→north, north
            // edge east→west, west edge north→south.
            let mut ring: Vec<Coord> = Vec::with_capacity(12);
            // hlines[j] slice covering cell i: indices 2i..=2i+2.
            ring.extend_from_slice(&hlines[j][2 * i..=2 * i + 2]);
            // vlines[i+1] slice covering cell j: indices 2j..=2j+2.
            ring.extend_from_slice(&vlines[i + 1][2 * j + 1..=2 * j + 2]);
            // hlines[j+1] reversed.
            let mut top: Vec<Coord> = hlines[j + 1][2 * i..=2 * i + 2].to_vec();
            top.reverse();
            ring.extend_from_slice(&top);
            // vlines[i] reversed.
            ring.push(vlines[i][2 * j + 1]);
            ring.push(vlines[i][2 * j]);
            ring.dedup();
            if ring.first() != ring.last() {
                ring.push(ring[0]);
            }
            let poly = Polygon::new(
                jackpine_geom::polygon::Ring::new(ring).expect("county ring is valid"),
                Vec::new(),
            );
            let base = names::COUNTY_NAMES[(id as usize - 1) % names::COUNTY_NAMES.len()];
            let name = if (id as usize) <= names::COUNTY_NAMES.len() {
                base.to_string()
            } else {
                format!("{base} {}", (id as usize - 1) / names::COUNTY_NAMES.len() + 1)
            };
            counties.push(County { id, name, geom: poly });
            id += 1;
        }
    }
    (counties, vlines, hlines)
}

/// Street grids per county cell, with names, zips and address ranges.
fn gen_roads(seed: u64, vlines: &[Vec<Coord>], hlines: &[Vec<Coord>], scale: f64) -> Vec<Road> {
    let mut rng = rng_for(seed, 2);
    let grid = vlines.len() - 1;
    let per_county = ((20_000.0 * scale) / (grid * grid) as f64).ceil() as usize;
    let mut roads = Vec::with_capacity(per_county * grid * grid);
    let mut id = 1i64;
    for j in 0..grid {
        for i in 0..grid {
            let zip = 75_000 + (j * grid + i) as i64;
            // Cell bounds from the (unjittered) junction coordinates.
            let x0 = vlines[i][2 * j].x;
            let x1 = vlines[i + 1][2 * j].x;
            let y0 = hlines[j][2 * i].y;
            let y1 = hlines[j + 1][2 * i].y;
            let inset = 0.06;
            let (x0, x1) = (x0 + (x1 - x0) * inset, x1 - (x1 - x0) * inset);
            let (y0, y1) = (y0 + (y1 - y0) * inset, y1 - (y1 - y0) * inset);
            for _ in 0..per_county {
                let horizontal = rng.gen_bool(0.5);
                let nseg = rng.gen_range(2..7usize);
                let mut pts: Vec<Coord> = Vec::with_capacity(nseg + 1);
                if horizontal {
                    let y = rng.gen_range(y0..y1);
                    let sx = rng.gen_range(x0..x1 * 0.5 + x0 * 0.5);
                    let len = rng.gen_range((x1 - x0) * 0.1..(x1 - x0) * 0.6);
                    let ex = (sx + len).min(x1);
                    for k in 0..=nseg {
                        let t = k as f64 / nseg as f64;
                        let wobble = jitter(&mut rng, (y1 - y0) * 0.01);
                        pts.push(Coord::new(sx + t * (ex - sx), y + wobble));
                    }
                } else {
                    let x = rng.gen_range(x0..x1);
                    let sy = rng.gen_range(y0..y1 * 0.5 + y0 * 0.5);
                    let len = rng.gen_range((y1 - y0) * 0.1..(y1 - y0) * 0.6);
                    let ey = (sy + len).min(y1);
                    for k in 0..=nseg {
                        let t = k as f64 / nseg as f64;
                        let wobble = jitter(&mut rng, (x1 - x0) * 0.01);
                        pts.push(Coord::new(x + wobble, sy + t * (ey - sy)));
                    }
                }
                pts.dedup();
                let Ok(geom) = LineString::new(pts) else {
                    continue; // degenerate wobble; skip
                };
                let dir = names::DIRECTIONS[rng.gen_range(0..names::DIRECTIONS.len())];
                let base = names::STREET_NAMES[rng.gen_range(0..names::STREET_NAMES.len())];
                let ty = names::STREET_TYPES[rng.gen_range(0..names::STREET_TYPES.len())];
                let name =
                    if dir.is_empty() { [base, ty].join(" ") } else { [dir, base, ty].join(" ") };
                let block = rng.gen_range(1..90i64);
                roads.push(Road {
                    id,
                    name,
                    zip,
                    from_addr: block * 100 + 1,
                    to_addr: block * 100 + 99,
                    geom,
                });
                id += 1;
            }
        }
    }
    roads
}

/// Star-convex blob polygon around a centre.
fn blob(rng: &mut Rng, center: Coord, radius: f64, verts: usize) -> Polygon {
    let mut pts = Vec::with_capacity(verts + 1);
    for k in 0..verts {
        let theta = std::f64::consts::TAU * k as f64 / verts as f64;
        let r = radius * rng.gen_range(0.55..1.0);
        pts.push(Coord::new(center.x + r * theta.cos(), center.y + r * theta.sin()));
    }
    pts.push(pts[0]);
    Polygon::new(jackpine_geom::polygon::Ring::new(pts).expect("blob ring is valid"), Vec::new())
}

fn random_point(rng: &mut Rng) -> Coord {
    Coord::new(rng.gen_range(EXTENT.min_x..EXTENT.max_x), rng.gen_range(EXTENT.min_y..EXTENT.max_y))
}

/// Clustered random position: half the records concentrate around a few
/// metro hot spots, the rest spread uniformly (TIGER data is strongly
/// clustered, and index behaviour depends on it).
fn clustered_point(rng: &mut Rng, hotspots: &[Coord]) -> Coord {
    if rng.gen_bool(0.5) && !hotspots.is_empty() {
        let h = hotspots[rng.gen_range(0..hotspots.len())];
        let r = rng.gen_range(0.0..0.8f64);
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let c = Coord::new(h.x + r * theta.cos(), h.y + r * theta.sin());
        if EXTENT.contains_coord(c) {
            return c;
        }
    }
    random_point(rng)
}

fn hotspots(rng: &mut Rng) -> Vec<Coord> {
    (0..6).map(|_| random_point(rng)).collect()
}

fn gen_arealm(seed: u64, scale: f64) -> Vec<AreaLandmark> {
    let mut rng = rng_for(seed, 3);
    let hot = hotspots(&mut rng);
    let count = (1500.0 * scale).ceil() as usize;
    let mut out = Vec::with_capacity(count);
    for id in 1..=count as i64 {
        let center = clustered_point(&mut rng, &hot);
        let radius = rng.gen_range(0.005..0.08);
        let verts = rng.gen_range(6..14usize);
        let (kind, code) = names::AREALM_KINDS[rng.gen_range(0..names::AREALM_KINDS.len())];
        let stem = names::STREET_NAMES[rng.gen_range(0..names::STREET_NAMES.len())];
        out.push(AreaLandmark {
            id,
            name: [stem, kind].join(" "),
            category: code.to_string(),
            geom: blob(&mut rng, center, radius, verts),
        });
    }
    out
}

fn gen_pointlm(seed: u64, scale: f64) -> Vec<PointLandmark> {
    let mut rng = rng_for(seed, 4);
    let hot = hotspots(&mut rng);
    let count = (4000.0 * scale).ceil() as usize;
    let mut out = Vec::with_capacity(count);
    for id in 1..=count as i64 {
        let c = clustered_point(&mut rng, &hot);
        let (kind, code) = names::POINTLM_KINDS[rng.gen_range(0..names::POINTLM_KINDS.len())];
        let stem = names::STREET_NAMES[rng.gen_range(0..names::STREET_NAMES.len())];
        out.push(PointLandmark {
            id,
            name: [stem, kind].join(" "),
            category: code.to_string(),
            geom: Point::from_coord(c).expect("extent coordinates are finite"),
        });
    }
    out
}

/// Rivers (long bands crossing the state west→east) plus lakes (blobs).
fn gen_areawater(seed: u64, scale: f64) -> Vec<AreaWater> {
    let mut rng = rng_for(seed, 5);
    let mut out = Vec::new();
    let mut id = 1i64;

    let river_count = ((4.0 * scale.sqrt()).ceil() as usize).clamp(2, 8);
    for r in 0..river_count {
        let name = [names::RIVER_NAMES[r % names::RIVER_NAMES.len()], "RIVER"].join(" ");
        let width = rng.gen_range(0.01..0.04);
        // Random-walk centreline west→east.
        let mut y = rng.gen_range(EXTENT.min_y + 1.0..EXTENT.max_y - 1.0);
        let steps = 40;
        let dx = EXTENT.width() / steps as f64;
        let mut center: Vec<Coord> = Vec::with_capacity(steps + 1);
        for k in 0..=steps {
            center.push(Coord::new(EXTENT.min_x + k as f64 * dx, y));
            y = (y + jitter(&mut rng, 0.25)).clamp(EXTENT.min_y + 0.5, EXTENT.max_y - 0.5);
        }
        // Band polygon: north side west→east, then south side east→west.
        let mut ring: Vec<Coord> = Vec::with_capacity(2 * center.len() + 1);
        for c in &center {
            ring.push(Coord::new(c.x, c.y + width));
        }
        for c in center.iter().rev() {
            ring.push(Coord::new(c.x, c.y - width));
        }
        ring.push(ring[0]);
        ring.dedup();
        if ring.first() != ring.last() {
            ring.push(ring[0]);
        }
        let geom = Polygon::new(
            jackpine_geom::polygon::Ring::new(ring).expect("river band ring is valid"),
            Vec::new(),
        );
        out.push(AreaWater { id, name, geom });
        id += 1;
    }

    let lake_count = (800.0 * scale).ceil() as usize;
    let hot = hotspots(&mut rng);
    for k in 0..lake_count {
        let center = clustered_point(&mut rng, &hot);
        let radius = rng.gen_range(0.01..0.12);
        let name = format!(
            "LAKE {} {}",
            names::LAKE_NAMES[k % names::LAKE_NAMES.len()],
            k / names::LAKE_NAMES.len() + 1
        );
        let verts = rng.gen_range(8..16usize);
        out.push(AreaWater { id, name, geom: blob(&mut rng, center, radius, verts) });
        id += 1;
    }
    out
}

/// Convenience: a record's geometry as a [`Geometry`] value.
impl County {
    /// Geometry as the closed sum type.
    pub fn geometry(&self) -> Geometry {
        Geometry::Polygon(self.geom.clone())
    }
}
impl Road {
    /// Geometry as the closed sum type.
    pub fn geometry(&self) -> Geometry {
        Geometry::LineString(self.geom.clone())
    }
}
impl AreaLandmark {
    /// Geometry as the closed sum type.
    pub fn geometry(&self) -> Geometry {
        Geometry::Polygon(self.geom.clone())
    }
}
impl PointLandmark {
    /// Geometry as the closed sum type.
    pub fn geometry(&self) -> Geometry {
        Geometry::Point(self.geom)
    }
}
impl AreaWater {
    /// Geometry as the closed sum type.
    pub fn geometry(&self) -> Geometry {
        Geometry::Polygon(self.geom.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TigerDataset {
        TigerDataset::generate(&TigerConfig { seed: 42, scale: 0.05 })
    }

    #[test]
    fn determinism() {
        let a = small();
        let b = small();
        assert_eq!(a.roads.len(), b.roads.len());
        assert_eq!(a.roads[0].name, b.roads[0].name);
        assert_eq!(a.roads[0].geom, b.roads[0].geom);
        assert_eq!(a.counties[3].geom, b.counties[3].geom);
        // Different seed differs.
        let c = TigerDataset::generate(&TigerConfig { seed: 43, scale: 0.05 });
        assert_ne!(a.roads[0].geom, c.roads[0].geom);
    }

    #[test]
    fn scaling() {
        let small = TigerDataset::generate(&TigerConfig { seed: 1, scale: 0.05 });
        let large = TigerDataset::generate(&TigerConfig { seed: 1, scale: 0.2 });
        assert!(large.roads.len() > 2 * small.roads.len());
        assert!(large.pointlm.len() > 2 * small.pointlm.len());
    }

    #[test]
    fn everything_within_extent_envelope() {
        let d = small();
        let fat = EXTENT.expanded_by(0.5);
        for r in &d.roads {
            assert!(fat.contains_envelope(&r.geom.envelope()), "road {} escapes", r.id);
        }
        for a in &d.arealm {
            assert!(fat.contains_envelope(&a.geom.envelope()));
        }
        for w in &d.areawater {
            assert!(fat.contains_envelope(&w.geom.envelope()));
        }
    }

    #[test]
    fn counties_tile_the_extent() {
        let d = small();
        let total: f64 = d.counties.iter().map(|c| c.geom.area()).sum();
        let extent_area = EXTENT.area();
        assert!(
            (total - extent_area).abs() < extent_area * 0.01,
            "county areas {total} vs extent {extent_area}"
        );
    }

    #[test]
    fn adjacent_counties_share_boundaries_exactly() {
        use jackpine_topo::touches;
        // Use a grid of at least 3×3 so "far" counties exist.
        let d = TigerDataset::generate(&TigerConfig { seed: 42, scale: 0.2 });
        let grid = (d.counties.len() as f64).sqrt() as usize;
        assert!(grid >= 3, "scale 0.2 should give at least a 3×3 county grid");
        // County 0 and county 1 are horizontal neighbours.
        let a = d.counties[0].geometry();
        let b = d.counties[1].geometry();
        assert!(touches(&a, &b).unwrap(), "neighbouring counties must touch");
        // Diagonal neighbours touch at the shared corner.
        let diag = d.counties[grid + 1].geometry();
        assert!(touches(&a, &diag).unwrap(), "diagonal counties share a corner");
        // A county two cells away shares nothing.
        let far = d.counties[2].geometry();
        assert!(!touches(&a, &far).unwrap());
    }

    #[test]
    fn roads_have_valid_address_ranges() {
        let d = small();
        assert!(!d.roads.is_empty());
        for r in d.roads.iter().take(200) {
            assert!(r.from_addr < r.to_addr);
            assert!(r.from_addr % 100 == 1);
            assert!(r.zip >= 75_000);
            assert!(r.geom.num_coords() >= 2);
        }
    }

    #[test]
    fn rivers_cross_many_counties() {
        let d = small();
        let river =
            d.areawater.iter().find(|w| w.name.ends_with("RIVER")).expect("at least one river");
        let crossed = d
            .counties
            .iter()
            .filter(|c| c.geom.envelope().intersects(&river.geom.envelope()))
            .count();
        let grid = (d.counties.len() as f64).sqrt() as usize;
        assert!(
            crossed >= grid,
            "river should span at least one county per column, got {crossed} of {grid}"
        );
        // Rivers are wide-extent, thin-height bands.
        let env = river.geom.envelope();
        assert!(env.width() > EXTENT.width() * 0.9);
    }

    #[test]
    fn landmark_names_and_categories() {
        let d = small();
        for a in d.arealm.iter().take(50) {
            assert!(!a.name.is_empty());
            assert!(!a.category.is_empty());
        }
        for p in d.pointlm.iter().take(50) {
            assert!(!p.name.is_empty());
        }
    }

    /// Every record of a scale-0.2 dataset, each field by its `Debug`
    /// form (exact for `f64`), folded into one FNV-1a: generation is
    /// pinned to the byte, names included.
    #[test]
    fn every_record_is_the_one_pinned() {
        let d = TigerDataset::generate(&TigerConfig { seed: 7, scale: 0.2 });
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |record: &dyn std::fmt::Debug| {
            for b in format!("{record:?}").bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        d.counties.iter().for_each(|r| fold(r));
        d.roads.iter().for_each(|r| fold(r));
        d.arealm.iter().for_each(|r| fold(r));
        d.pointlm.iter().for_each(|r| fold(r));
        d.areawater.iter().for_each(|r| fold(r));
        println!("dataset: {} records, FNV-1a {hash:016x}", d.total_rows());
        assert_eq!((d.total_rows(), hash), (5278, 0xda8b_aa1b_63c4_25a7));
        // An empty geometry has a NULL distance, which the k-NN path
        // never sees; no generated record has one.
        let empty = d
            .counties
            .iter()
            .map(County::geometry)
            .chain(d.roads.iter().map(Road::geometry))
            .chain(d.arealm.iter().map(AreaLandmark::geometry))
            .chain(d.pointlm.iter().map(PointLandmark::geometry))
            .chain(d.areawater.iter().map(AreaWater::geometry))
            .filter(Geometry::is_empty)
            .count();
        assert_eq!(empty, 0, "records with an empty geometry");
    }
}
