//! The benchmark's fixed definitions. Workload and metric names, units,
//! bounds and `run_seconds` are read from `BENCHMARK.json` at the
//! repository root, which is compiled in: there is one copy of them.
//! This file adds what the driver's format has no key for.

use jackpine_core::benchreport::Json;
use std::sync::OnceLock;

/// The seed `run`, `repeat` and `workloads.lock` use when none is given.
pub const DEFAULT_SEED: u64 = 2011;

/// Seed of the synthetic TIGER extract. The data is part of the
/// benchmark's definition, like the paper's Texas extract: `--seed`
/// draws the statements run against it, not the data, so that one
/// seed's rivers being longer than another's cannot pass for a change
/// in the engine.
pub const DATASET_SEED: u64 = 0x6a61_636b_7069_6e65;

/// How often set-up and recovery are repeated: sub-second phases are
/// reported as the lower quartile of five, never as one sample.
pub const PHASE_REPEATS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    RefineWarm,
    BrowseWarm,
    ColdBounded,
    IngestDurable,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Dataset scale (1.0 = 26,398 rows).
    pub scale: f64,
    /// Intra-query workers, pinned: the host's CPU count is never asked.
    pub workers: usize,
    /// Rounds measured in a run of `run_seconds`; other lengths scale
    /// it. Work is fixed, not time, so that counts repeat exactly.
    pub rounds: usize,
    /// Statements of the previous round replayed, untimed, after the
    /// kernel samples: the kernel's sweep empties the core's caches, and
    /// a warm workload is measured with them filled by its own work.
    pub rewarm: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "refine_warm",
        kind: Kind::RefineWarm,
        scale: 2.0,
        workers: 2,
        rounds: 17,
        rewarm: 5,
    },
    Workload {
        name: "browse_warm",
        kind: Kind::BrowseWarm,
        scale: 4.0,
        workers: 1,
        rounds: 60,
        rewarm: 64,
    },
    Workload {
        name: "cold_bounded",
        kind: Kind::ColdBounded,
        scale: 4.0,
        workers: 1,
        rounds: 34,
        rewarm: 0,
    },
    Workload {
        name: "ingest_durable",
        kind: Kind::IngestDurable,
        scale: 4.0,
        workers: 1,
        rounds: 16,
        rewarm: 0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// 0 for per-layer metrics, which are not gated.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares to the driver.
pub struct Declared {
    /// The run length the round counts above are sized for.
    pub run_seconds: u64,
    /// What a user of the engine sees. Every workload reports all.
    pub end_to_end: Vec<Metric>,
    /// What single layers did, from the traced run and the probes.
    pub per_layer: Vec<Metric>,
}

impl Declared {
    /// The statement families of the `family.*_ms` per-layer metrics, in
    /// their order.
    pub fn families(&self) -> Vec<&str> {
        self.per_layer
            .iter()
            .filter_map(|m| m.name.strip_prefix("family.")?.strip_suffix("_ms"))
            .collect()
    }
}

fn metrics(json: &Json, list: &str) -> Vec<Metric> {
    let field = |m: &Json, key: &str| {
        m.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{list}: no {key}")).to_string()
    };
    json.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| Metric {
            name: field(m, "name"),
            unit: field(m, "unit"),
            better: if field(m, "better") == "higher" { Better::Higher } else { Better::Lower },
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// `BENCHMARK.json` as it was when this binary was built. It is this
/// package's own checked-in file, so a malformed one is a bug: panic.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON");
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert!(
            names.iter().copied().eq(WORKLOADS.iter().map(|w| w.name)),
            "BENCHMARK.json lists {names:?}, spec.rs other workloads"
        );
        Declared {
            run_seconds: json.get("run_seconds").and_then(Json::as_f64).expect("run_seconds")
                as u64,
            end_to_end: metrics(&json, "end_to_end"),
            per_layer: metrics(&json, "per_layer"),
        }
    })
}
