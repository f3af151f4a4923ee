//! Prepared-vs-naive equivalence corpus: the prepared-geometry fast
//! path must be *bit-identical* to the naive DE-9IM machinery — same
//! intersection matrices from `relate_prepared` as from `relate`, and
//! the same truth value from `evaluate` as from the naive predicate
//! behind the SQL layer's envelope prefilter.
//!
//! The corpus is the snapped shape corpus of `tests/common/shapes.rs`,
//! which `tests/equivalence.rs` also loads into the engine.

mod common;

use common::shapes::{self, ALL_KINDS};
use jackpine::geom::Geometry;
use jackpine::topo::{evaluate, relate, relate_prepared, PreparedGeometry};

fn corpus(name: &str) -> Vec<Geometry> {
    shapes::corpus(&mut common::test_rng(name)).iter().map(|w| shapes::parse(w)).collect()
}

/// Every ordered pair of the corpus: the prepared relate must produce
/// the bit-identical DE-9IM matrix, and every named predicate evaluated
/// over prepared operands must agree with the prefiltered naive answer.
#[test]
fn prepared_matches_naive_over_seeded_corpus() {
    let geoms = corpus("prepared_matches_naive_over_seeded_corpus");
    let prepared: Vec<PreparedGeometry> = geoms.iter().map(PreparedGeometry::new).collect();
    let mut relates = 0usize;
    let mut short_circuits = 0usize;

    for (i, (ga, pa)) in geoms.iter().zip(&prepared).enumerate() {
        for (j, (gb, pb)) in geoms.iter().zip(&prepared).enumerate() {
            let naive = relate(ga, gb).expect("naive relate on corpus geometry");
            let fast = relate_prepared(pa, pb).expect("prepared relate on corpus geometry");
            assert_eq!(
                naive, fast,
                "pair ({i}, {j}): relate {naive} != relate_prepared {fast}\n a = {ga:?}\n b = {gb:?}"
            );
            relates += 1;

            for kind in ALL_KINDS {
                let outcome = evaluate(kind, pa, pb)
                    .unwrap_or_else(|e| panic!("pair ({i}, {j}) {kind:?}: {e}"));
                let expected =
                    shapes::naive(kind, ga, gb).expect("naive predicate on corpus geometry");
                assert_eq!(
                    outcome.value, expected,
                    "pair ({i}, {j}) {kind:?}: prepared {} != naive {expected}\n a = {ga:?}\n b = {gb:?}",
                    outcome.value
                );
                short_circuits += usize::from(outcome.short_circuit);
            }
        }
    }

    // The corpus must actually exercise both regimes: plenty of pairs,
    // and a healthy share decided by short-circuits (else the fast path
    // under test never fired).
    assert!(relates >= 1000, "corpus too small: {relates} pairs");
    assert!(short_circuits > relates, "short-circuits barely fired: {short_circuits}");
}

/// Preparation itself must be order-independent and reusable: preparing
/// once and relating against many partners gives the same matrices as
/// fresh preparations each time.
#[test]
fn reused_preparation_is_stable() {
    let geoms = corpus("reused_preparation_is_stable");
    let donut = PreparedGeometry::new(&geoms[5]);
    for g in &geoms {
        let fresh = relate_prepared(&PreparedGeometry::new(&geoms[5]), &PreparedGeometry::new(g))
            .expect("fresh relate");
        let reused = relate_prepared(&donut, &PreparedGeometry::new(g)).expect("reused relate");
        assert_eq!(fresh, reused, "reused preparation diverged against {g:?}");
    }
}
