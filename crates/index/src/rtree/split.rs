//! The R\*-tree's insertion heuristics: choosing the subtree an entry
//! goes down, the node split along the better axis, and the order of
//! forced reinsertion.

use jackpine_geom::{Coord, Envelope};

pub(super) fn pick_min_overlap(entries: &[(Envelope, usize)], env: Envelope) -> usize {
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

pub(super) fn sort_by_center_distance<T>(entries: &mut [(Envelope, T)], center: Coord) {
    entries.sort_by(|a, b| {
        let da = a.0.center().map_or(f64::INFINITY, |c| c.distance_sq(center));
        let db = b.0.center().map_or(f64::INFINITY, |c| c.distance_sq(center));
        da.total_cmp(&db)
    });
}

pub(super) fn pick_min_enlargement(entries: &[(Envelope, usize)], env: Envelope) -> usize {
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
pub(super) fn rstar_split_point<T>(entries: &mut [(Envelope, T)], min_entries: usize) -> usize {
    let total = entries.len();
    let upper = total - min_entries;

    // For each axis, compute the total margin over all valid distributions.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..2 {
        sort_axis(entries, axis);
        let (prefix, suffix) = envelope_scans(entries);
        let mut margin_sum = 0.0;
        for split in min_entries..=upper {
            margin_sum += prefix[split - 1].margin() + suffix[split].margin();
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }
    sort_axis(entries, best_axis);
    let (prefix, suffix) = envelope_scans(entries);
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

fn sort_axis<T>(entries: &mut [(Envelope, T)], axis: usize) {
    entries.sort_by(|(ea, _), (eb, _)| {
        if axis == 0 {
            ea.min_x.total_cmp(&eb.min_x).then(ea.max_x.total_cmp(&eb.max_x))
        } else {
            ea.min_y.total_cmp(&eb.min_y).then(ea.max_y.total_cmp(&eb.max_y))
        }
    });
}

/// Prefix/suffix running envelopes of a sorted entry list.
fn envelope_scans<T>(entries: &[(Envelope, T)]) -> (Vec<Envelope>, Vec<Envelope>) {
    let n = entries.len();
    let mut prefix = vec![Envelope::EMPTY; n];
    let mut acc = Envelope::EMPTY;
    for (i, (e, _)) in entries.iter().enumerate() {
        acc.expand_to_include(e);
        prefix[i] = acc;
    }
    let mut suffix = vec![Envelope::EMPTY; n];
    let mut acc = Envelope::EMPTY;
    for i in (0..n).rev() {
        acc.expand_to_include(&entries[i].0);
        suffix[i] = acc;
    }
    (prefix, suffix)
}
