//! Fixed-grid (tessellation) spatial index, modelling the tile-based
//! indexing of the commercial system in Jackpine's evaluation.
//!
//! The extent is divided into `cols × rows` cells; each entry is recorded
//! in every cell its envelope overlaps. Window queries visit the covered
//! cell range and deduplicate multi-assigned entries with a query-epoch
//! stamp, so repeated queries never rescan or reallocate.

use jackpine_geom::{Coord, Envelope};

/// A fixed multi-assignment grid over a bounded extent.
#[derive(Debug)]
pub struct GridIndex<T: Clone> {
    extent: Envelope,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    cells: Vec<Vec<u32>>,
    /// Entry storage; multi-assigned cells reference entries by index.
    entries: Vec<(Envelope, T)>,
    /// Tombstones for removed entries.
    dead: Vec<bool>,
    /// Per-entry visit stamp for query-time deduplication.
    stamps: std::sync::Mutex<(u64, Vec<u64>)>,
}

impl<T: Clone> Clone for GridIndex<T> {
    fn clone(&self) -> Self {
        GridIndex {
            extent: self.extent,
            cols: self.cols,
            rows: self.rows,
            cell_w: self.cell_w,
            cell_h: self.cell_h,
            cells: self.cells.clone(),
            entries: self.entries.clone(),
            dead: self.dead.clone(),
            stamps: std::sync::Mutex::new((0, vec![0; self.entries.len()])),
        }
    }
}

impl<T: Clone> GridIndex<T> {
    /// Creates an empty grid covering `extent` with the given resolution.
    ///
    /// Entries falling outside the extent are clamped into the border
    /// cells, so the index remains correct (if slower) for stragglers.
    ///
    /// # Panics
    /// If `extent` is empty or a dimension is zero.
    pub fn new(extent: Envelope, cols: usize, rows: usize) -> GridIndex<T> {
        assert!(!extent.is_empty(), "grid extent must be non-empty");
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        GridIndex {
            extent,
            cols,
            rows,
            cell_w: extent.width() / cols as f64,
            cell_h: extent.height() / rows as f64,
            cells: vec![Vec::new(); cols * rows],
            entries: Vec::new(),
            dead: Vec::new(),
            stamps: std::sync::Mutex::new((0, Vec::new())),
        }
    }

    /// Builds a grid holding `items`, as one [`GridIndex::insert`] per item
    /// in order would — the same ids, ascending in every cell — but with
    /// every cell sized exactly from a counting pass, and `items` kept as
    /// the entry storage without a copy.
    ///
    /// # Panics
    /// As [`GridIndex::new`].
    pub fn bulk_load(
        extent: Envelope,
        cols: usize,
        rows: usize,
        items: Vec<(Envelope, T)>,
    ) -> GridIndex<T> {
        let mut g = GridIndex::new(extent, cols, rows);
        let mut counts = vec![0usize; cols * rows];
        for (env, _) in &items {
            g.cells_of(env).for_each(|cell| counts[cell] += 1);
        }
        for (cell, n) in g.cells.iter_mut().zip(counts) {
            cell.reserve_exact(n);
        }
        for (id, (env, _)) in items.iter().enumerate() {
            for cell in g.cells_of(env) {
                g.cells[cell].push(id as u32);
            }
        }
        g.dead = vec![false; items.len()];
        g.stamps = std::sync::Mutex::new((0, vec![0; items.len()]));
        g.entries = items;
        g
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// `true` when no live entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structure statistics.
    pub fn stats(&self) -> crate::IndexStats {
        crate::IndexStats {
            height: 1,
            entries: self.len(),
            nodes: self.cells.iter().filter(|c| !c.is_empty()).count(),
        }
    }

    fn col_of(&self, x: f64) -> usize {
        if self.cell_w == 0.0 {
            return 0;
        }
        (((x - self.extent.min_x) / self.cell_w).floor() as i64).clamp(0, self.cols as i64 - 1)
            as usize
    }

    fn row_of(&self, y: f64) -> usize {
        if self.cell_h == 0.0 {
            return 0;
        }
        (((y - self.extent.min_y) / self.cell_h).floor() as i64).clamp(0, self.rows as i64 - 1)
            as usize
    }

    fn cell_range(&self, env: &Envelope) -> (usize, usize, usize, usize) {
        (
            self.col_of(env.min_x),
            self.col_of(env.max_x),
            self.row_of(env.min_y),
            self.row_of(env.max_y),
        )
    }

    /// The positions in `cells` of every cell `env` overlaps, row-major.
    fn cells_of(&self, env: &Envelope) -> impl Iterator<Item = usize> {
        let (c0, c1, r0, r1) = self.cell_range(env);
        let cols = self.cols;
        (r0..=r1).flat_map(move |r| (c0..=c1).map(move |c| r * cols + c))
    }

    /// Inserts an entry, assigning it to every overlapped cell.
    pub fn insert(&mut self, env: Envelope, value: T) {
        let id = self.entries.len() as u32;
        self.entries.push((env, value));
        for cell in self.cells_of(&env) {
            self.cells[cell].push(id);
        }
        self.dead.push(false);
        self.stamps.lock().expect("stamp lock").1.push(0);
    }

    /// Calls `visit` once per entry whose envelope intersects `window`.
    pub fn query_window(&self, window: &Envelope, visit: impl FnMut(&Envelope, &T)) {
        self.query_window_probe(window, visit);
    }

    /// [`GridIndex::query_window`] that also reports how many grid cells
    /// the probe inspected and how many candidates it emitted.
    pub fn query_window_probe(
        &self,
        window: &Envelope,
        mut visit: impl FnMut(&Envelope, &T),
    ) -> crate::ProbeStats {
        let mut stats = crate::ProbeStats::default();
        if window.is_empty() {
            return stats;
        }
        let mut stamps = self.stamps.lock().expect("stamp lock");
        stamps.0 += 1;
        let epoch = stamps.0;
        let (c0, c1, r0, r1) = self.cell_range(window);
        for r in r0..=r1 {
            for c in c0..=c1 {
                stats.nodes_visited += 1;
                for &id in &self.cells[r * self.cols + c] {
                    let stamp = &mut stamps.1[id as usize];
                    if *stamp == epoch {
                        continue;
                    }
                    *stamp = epoch;
                    if self.dead[id as usize] {
                        continue;
                    }
                    let (env, value) = &self.entries[id as usize];
                    if env.intersects(window) {
                        stats.candidates += 1;
                        visit(env, value);
                    }
                }
            }
        }
        stats
    }

    /// Removes one entry matching `env` exactly for which `pred` holds,
    /// by tombstoning it (cells keep the id; queries skip dead entries).
    /// Returns the removed payload, if any.
    pub fn remove(&mut self, env: &Envelope, pred: impl Fn(&T) -> bool) -> Option<T> {
        if env.is_empty() {
            // An empty envelope overlaps no cell: look through the entries.
            let id = (0..self.entries.len()).find(|&id| {
                let (e, v) = &self.entries[id];
                e == env && !self.dead[id] && pred(v)
            })?;
            self.dead[id] = true;
            return Some(self.entries[id].1.clone());
        }
        for cell in self.cells_of(env) {
            for &id in &self.cells[cell] {
                let (e, v) = &self.entries[id as usize];
                if e == env && !self.dead[id as usize] && pred(v) {
                    self.dead[id as usize] = true;
                    return Some(self.entries[id as usize].1.clone());
                }
            }
        }
        None
    }

    /// Collects the payloads of every entry intersecting `window`.
    pub fn window(&self, window: &Envelope) -> Vec<T> {
        let mut out = Vec::new();
        self.query_window(window, |_, v| out.push(v.clone()));
        out
    }

    /// k-nearest-neighbour search by expanding square ring of cells.
    /// Returns `(distance, payload)` pairs in ascending distance order.
    pub fn nearest(&self, query: Coord, k: usize) -> Vec<(f64, T)> {
        self.nearest_probe(query, k).0
    }

    /// [`GridIndex::nearest`] that also reports how many grid cells the
    /// ring search inspected and how many results it produced.
    pub fn nearest_probe(&self, query: Coord, k: usize) -> (Vec<(f64, T)>, crate::ProbeStats) {
        let mut stats = crate::ProbeStats::default();
        if k == 0 || self.entries.is_empty() {
            return (Vec::new(), stats);
        }
        let mut best: Vec<(f64, u32)> = Vec::new();
        let qc = self.col_of(query.x);
        let qr = self.row_of(query.y);
        let max_radius = self.cols.max(self.rows);
        let mut stamps = self.stamps.lock().expect("stamp lock");
        stamps.0 += 1;
        let epoch = stamps.0;

        for radius in 0..=max_radius {
            // Once we have k candidates, stop as soon as the closest
            // unvisited ring cannot contain anything closer.
            if best.len() >= k {
                let ring_dist = (radius.saturating_sub(1)) as f64 * self.cell_w.min(self.cell_h);
                if best[k - 1].0 <= ring_dist {
                    break;
                }
            }
            let mut any_cell = false;
            for (r, c) in ring_cells(qr, qc, radius, self.rows, self.cols) {
                any_cell = true;
                stats.nodes_visited += 1;
                for &id in &self.cells[r * self.cols + c] {
                    let stamp = &mut stamps.1[id as usize];
                    if *stamp == epoch {
                        continue;
                    }
                    *stamp = epoch;
                    if self.dead[id as usize] {
                        continue;
                    }
                    let d = self.entries[id as usize].0.distance_to_coord(query);
                    let pos = best.partition_point(|&(bd, _)| bd <= d);
                    best.insert(pos, (d, id));
                    if best.len() > k {
                        best.pop();
                    }
                }
            }
            if !any_cell && radius > 0 {
                break; // ring fully outside the grid
            }
        }
        stats.candidates = best.len() as u64;
        let out =
            best.into_iter().map(|(d, id)| (d, self.entries[id as usize].1.clone())).collect();
        (out, stats)
    }
}

/// The cells on the square ring at `radius` around `(qr, qc)`, clipped to
/// the grid bounds.
fn ring_cells(
    qr: usize,
    qc: usize,
    radius: usize,
    rows: usize,
    cols: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let (qr, qc, radius) = (qr as i64, qc as i64, radius as i64);
    let (rows, cols) = (rows as i64, cols as i64);
    let mut out: Vec<(usize, usize)> = Vec::new();
    if radius == 0 {
        if qr >= 0 && qr < rows && qc >= 0 && qc < cols {
            out.push((qr as usize, qc as usize));
        }
        return out.into_iter();
    }
    for c in (qc - radius)..=(qc + radius) {
        for r in [qr - radius, qr + radius] {
            if r >= 0 && r < rows && c >= 0 && c < cols {
                out.push((r as usize, c as usize));
            }
        }
    }
    for r in (qr - radius + 1)..=(qr + radius - 1) {
        for c in [qc - radius, qc + radius] {
            if r >= 0 && r < rows && c >= 0 && c < cols {
                out.push((r as usize, c as usize));
            }
        }
    }
    out.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize) -> Vec<(Envelope, usize)> {
        let mut state = 0xdeadbeefu64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = ((state >> 33) % 1000) as f64;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let y = ((state >> 33) % 1000) as f64;
            out.push((Envelope::new(x, y, x + 5.0, y + 5.0), i));
        }
        out
    }

    fn build(n: usize) -> (GridIndex<usize>, Vec<(Envelope, usize)>) {
        let items = cloud(n);
        let mut g = GridIndex::new(Envelope::new(0.0, 0.0, 1010.0, 1010.0), 32, 32);
        for (e, v) in &items {
            g.insert(*e, *v);
        }
        (g, items)
    }

    #[test]
    fn window_query_matches_brute_force() {
        let (g, items) = build(1500);
        for window in [
            Envelope::new(0.0, 0.0, 100.0, 100.0),
            Envelope::new(500.0, 200.0, 800.0, 300.0),
            Envelope::new(-50.0, -50.0, -10.0, -10.0),
            Envelope::new(0.0, 0.0, 1010.0, 1010.0),
        ] {
            let mut got = g.window(&window);
            got.sort_unstable();
            let mut want: Vec<usize> =
                items.iter().filter(|(e, _)| window.intersects(e)).map(|(_, v)| *v).collect();
            want.sort_unstable();
            assert_eq!(got, want, "window {window:?}");
        }
    }

    #[test]
    fn multi_cell_entries_not_duplicated() {
        let mut g = GridIndex::new(Envelope::new(0.0, 0.0, 100.0, 100.0), 10, 10);
        // Spans many cells.
        g.insert(Envelope::new(5.0, 5.0, 95.0, 95.0), 1usize);
        let hits = g.window(&Envelope::new(0.0, 0.0, 100.0, 100.0));
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn out_of_extent_entries_clamped_but_found() {
        let mut g = GridIndex::new(Envelope::new(0.0, 0.0, 100.0, 100.0), 4, 4);
        g.insert(Envelope::new(150.0, 150.0, 160.0, 160.0), 9usize);
        let hits = g.window(&Envelope::new(140.0, 140.0, 170.0, 170.0));
        assert_eq!(hits, vec![9]);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let (g, items) = build(700);
        let q = Coord::new(473.0, 519.0);
        let got = g.nearest(q, 8);
        assert_eq!(got.len(), 8);
        let mut dists: Vec<f64> = items.iter().map(|(e, _)| e.distance_to_coord(q)).collect();
        dists.sort_by(f64::total_cmp);
        for (i, (d, _)) in got.iter().enumerate() {
            assert!((d - dists[i]).abs() < 1e-9, "k={i}: got {d}, want {}", dists[i]);
        }
    }

    #[test]
    fn nearest_corner_query() {
        let (g, items) = build(300);
        let q = Coord::new(0.0, 0.0);
        let got = g.nearest(q, 3);
        let mut dists: Vec<f64> = items.iter().map(|(e, _)| e.distance_to_coord(q)).collect();
        dists.sort_by(f64::total_cmp);
        assert!((got[0].0 - dists[0]).abs() < 1e-9);
        assert!((got[2].0 - dists[2]).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero_k() {
        let g: GridIndex<usize> = GridIndex::new(Envelope::new(0.0, 0.0, 1.0, 1.0), 2, 2);
        assert!(g.nearest(Coord::new(0.5, 0.5), 3).is_empty());
        assert!(g.is_empty());
        let (g, _) = build(10);
        assert!(g.nearest(Coord::new(0.5, 0.5), 0).is_empty());
    }

    #[test]
    fn probe_stats_reflect_work() {
        let (g, _) = build(1500);
        let window = Envelope::new(500.0, 200.0, 800.0, 300.0);
        let mut hits = 0u64;
        let stats = g.query_window_probe(&window, |_, _| hits += 1);
        assert_eq!(stats.candidates, hits);
        assert!(hits > 0);
        // Cells visited = the covered cell range, never the whole grid.
        assert!(stats.nodes_visited >= 1);
        assert!((stats.nodes_visited as usize) < 32 * 32);

        let (nn, nn_stats) = g.nearest_probe(Coord::new(473.0, 519.0), 8);
        assert_eq!(nn.len(), 8);
        assert_eq!(nn_stats.candidates, 8);
        assert!(nn_stats.nodes_visited >= 1);
    }

    #[test]
    fn bulk_load_equals_the_insert_loop() {
        let extent = Envelope::new(0.0, 0.0, 1010.0, 1010.0);
        let mut items = cloud(1500);
        // Multi-cell entries, and entries past every side of the extent.
        items.push((Envelope::new(5.0, 5.0, 995.0, 40.0), 1500));
        items.push((Envelope::new(200.0, 100.0, 700.0, 900.0), 1501));
        items.push((Envelope::new(1500.0, 1500.0, 1600.0, 1600.0), 1502));
        items.push((Envelope::new(-90.0, 400.0, -80.0, 410.0), 1503));
        items.push((Envelope::new(-50.0, -50.0, 2000.0, 2000.0), 1504));
        let mut looped = GridIndex::new(extent, 32, 32);
        for (e, v) in &items {
            looped.insert(*e, *v);
        }
        let bulk = GridIndex::bulk_load(extent, 32, 32, items);
        assert_eq!(bulk.cells, looped.cells, "same ids, in the same order, in every cell");
        assert!(bulk.cells.iter().all(|c| c.len() == c.capacity()), "every cell sized exactly");
        assert_eq!(bulk.stats(), looped.stats());
        for window in [
            Envelope::new(0.0, 0.0, 100.0, 100.0),
            Envelope::new(500.0, 200.0, 800.0, 300.0),
            Envelope::new(1400.0, 1400.0, 1700.0, 1700.0),
            Envelope::new(-100.0, 390.0, -70.0, 420.0),
            Envelope::new(0.0, 0.0, 1010.0, 1010.0),
        ] {
            assert_eq!(bulk.window(&window), looped.window(&window), "window {window:?}");
        }
        for (q, k) in
            [((473.0, 519.0), 8), ((0.0, 0.0), 3), ((1550.0, 1550.0), 2), ((-85.0, 405.0), 5)]
        {
            let q = Coord::new(q.0, q.1);
            assert_eq!(bulk.nearest(q, k), looped.nearest(q, k), "nearest {k} to {q:?}");
        }
    }

    #[test]
    fn stats_count_occupied_cells() {
        let (g, _) = build(100);
        let s = g.stats();
        assert_eq!(s.entries, 100);
        assert!(s.nodes > 0 && s.nodes <= 32 * 32);
    }
}
