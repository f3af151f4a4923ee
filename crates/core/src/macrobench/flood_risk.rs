//! Scenario M4 — flood risk analysis.
//!
//! An analyst buffers a river to form the flood zone, then inventories
//! what falls inside it: landmarks at risk, road segments cut off,
//! settlements (point landmarks) affected, and the exact flooded area of
//! each affected landmark.
//!
//! The first step computes the buffer inside the database (`ST_Buffer`),
//! which the MBR-only profile cannot run — the step is skipped there,
//! exactly the feature-gap behaviour the paper reports. The remaining
//! steps use an application-side flood-zone geometry (computed here with
//! the geometry kernel) so every engine answers the same questions.

use super::{scenario_rng, Scenario, ScenarioConfig};
use jackpine_datagen::TigerDataset;
use jackpine_geom::algorithms::buffer::buffer_with_segments;
use jackpine_geom::{wkt, Geometry};

/// Buffer distance in degrees (≈ 2 km at this latitude).
const FLOOD_DISTANCE: f64 = 0.02;

/// Builds the flood-risk scenario.
pub fn flood_risk(data: &TigerDataset, config: &ScenarioConfig) -> Scenario {
    let mut rng = scenario_rng(config, 4);
    let rivers: Vec<_> = data.areawater.iter().filter(|w| w.name.ends_with("RIVER")).collect();
    let mut steps = Vec::new();

    for _ in 0..config.sessions {
        let river = rivers[rng.gen_range(0..rivers.len())];
        let river_geom = Geometry::Polygon(river.geom.clone());
        let river_wkt = wkt::write(&river_geom);

        // Step 1: in-database flood-zone construction (exact profiles).
        steps.push((
            "buffer river (in DB)".to_string(),
            format!(
                "SELECT ST_Area(ST_Buffer(ST_GeomFromText('{river_wkt}'), {FLOOD_DISTANCE}, 4))"
            ),
        ));

        // Application-side zone for the inventory steps. A coarse arc
        // approximation keeps the constant geometry manageable.
        let zone = buffer_with_segments(&river_geom, FLOOD_DISTANCE, 2)
            .expect("river buffer is well-defined");
        let zone_wkt = wkt::write(&zone);

        steps.push((
            "landmarks at risk".to_string(),
            format!(
                "SELECT COUNT(*) FROM arealm WHERE ST_Intersects(geom, \
                 ST_GeomFromText('{zone_wkt}'))"
            ),
        ));
        steps.push((
            "roads cut off".to_string(),
            format!(
                "SELECT COUNT(*) FROM roads WHERE ST_Intersects(geom, \
                 ST_GeomFromText('{zone_wkt}'))"
            ),
        ));
        steps.push((
            "settlements affected".to_string(),
            format!(
                "SELECT COUNT(*) FROM pointlm WHERE ST_Within(geom, \
                 ST_GeomFromText('{zone_wkt}'))"
            ),
        ));
        steps.push((
            "flooded area per landmark".to_string(),
            format!(
                "SELECT SUM(ST_Area(ST_Intersection(geom, ST_GeomFromText('{zone_wkt}')))) \
                 FROM arealm WHERE ST_Intersects(geom, ST_GeomFromText('{zone_wkt}'))"
            ),
        ));
    }
    Scenario { id: "M4", name: "Flood risk analysis", steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_datagen::TigerConfig;

    /// M4 writes its flood zone into the SQL as shortest round-trip WKT,
    /// so a change in any bit of a buffer changes the statements the
    /// benchmark's `workloads.lock` pins. Every river of the seed-2011
    /// dataset, buffered as M4 does (`quad_segs` 2) and as its in-database
    /// step does (4): the FNV-1a of each zone's WKT is pinned.
    #[test]
    fn flood_zones_are_the_pinned_bits() {
        let data = TigerDataset::generate(&TigerConfig { seed: 2011, scale: 2.0 });
        let mut got = Vec::new();
        for river in data.areawater.iter().filter(|w| w.name.ends_with("RIVER")) {
            let river = Geometry::Polygon(river.geom.clone());
            for quad_segs in [2, 4] {
                let zone = buffer_with_segments(&river, FLOOD_DISTANCE, quad_segs).unwrap();
                let hash = wkt::write(&zone).bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
                got.push(format!("{quad_segs}:{hash:016x}"));
            }
        }
        assert_eq!(
            got,
            [
                "2:702456685ab88834",
                "4:6276e84d077d66c3",
                "2:f8d60d90abf98382",
                "4:1389064094ec8e06",
                "2:f565974fb4634b1d",
                "4:75c65de72dd03ab3",
                "2:865f78b5e9d79f5e",
                "4:5e3f5da2be4ec055",
                "2:15eb55f807ff5937",
                "4:aa15201377663e3c",
                "2:7a9ff42117d12b25",
                "4:996e727f02045a4a"
            ]
        );
    }
}
