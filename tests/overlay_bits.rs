//! The overlay's and the buffer's output, bit for bit: the FNV-1a of the
//! WKT (or of the error text) of every answer over the snapped shape
//! corpus, pinned. A change to how the overlay cuts, classifies or
//! stitches its edges that moves any coordinate of any answer fails here,
//! before M4's flood zones or the benchmark's locked statements move.

mod common;

use common::shapes;
use jackpine::geom::Geometry;
use jackpine::sql::functions::{call, Func, FunctionMode};
use jackpine::storage::Value;

/// Folds `bytes` into the running FNV-1a `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a of the answers of `name` over each argument list, one line an
/// answer: the WKT of the geometry, or the error text.
fn digest(name: &str, calls: impl Iterator<Item = Vec<Value>>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0;
    let func = Func::from_name(name).expect("a function name");
    for args in calls {
        let line = match call(FunctionMode::Exact, func, &args) {
            Ok(Value::Geom(g)) => jackpine::geom::wkt::write(&g),
            Ok(other) => panic!("{name} answered {other:?}"),
            Err(e) => format!("error: {e}"),
        };
        h = fnv(fnv(h, line.as_bytes()), b"\n");
        n += 1;
    }
    format!("{name} x{n}: {h:016x}")
}

#[test]
fn overlays_and_buffers_of_the_shape_corpus_are_the_pinned_bits() {
    let corpus: Vec<Geometry> = shapes::corpus(&mut common::test_rng("shape corpus"))
        .iter()
        .map(|w| shapes::parse(w))
        .collect();
    let of = |keep: fn(&Geometry) -> bool| -> Vec<Value> {
        corpus.iter().filter(|g| keep(g)).cloned().map(Value::Geom).collect()
    };
    let polygons = of(|g| matches!(g, Geometry::Polygon(_)));
    let lines_and_polygons = of(|g| matches!(g, Geometry::Polygon(_) | Geometry::LineString(_)));
    let pairs =
        || polygons.iter().flat_map(|a| polygons.iter().map(|b| vec![a.clone(), b.clone()]));
    let buffers = |quad_segs| {
        lines_and_polygons
            .iter()
            .map(move |g| vec![g.clone(), Value::Float(0.5), Value::Int(quad_segs)])
    };
    let got = [
        digest("ST_Intersection", pairs()),
        digest("ST_Union", pairs()),
        digest("ST_Difference", pairs()),
        digest("ST_Buffer", buffers(2)),
        digest("ST_Buffer", buffers(4)),
    ];
    assert_eq!(
        got,
        [
            "ST_Intersection x1089: c066d8fc1c283571",
            "ST_Union x1089: 10a8948a9bae38ed",
            "ST_Difference x1089: 2066f7851f5ccf9d",
            "ST_Buffer x47: d3523cc693d49ac3",
            "ST_Buffer x47: 282f8c9f89e11153",
        ]
    );
}
