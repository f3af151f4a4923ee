//! Result lines, and the two subcommands that read them back: `repeat`
//! (is the benchmark steady?) and `compare` (did a change move it?).

use crate::calib::{iqr_share, median, q1, quantile};
use crate::runner::Outcome;
use crate::spec::{declared, Better, Metric, WORKLOADS};
use jackpine_core::benchreport::Json;
use std::fmt::Write as _;

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of `specs`.
/// A metric the run did not produce, or could not compute (no samples,
/// a division by nothing), is an error, not a zero: a zero would read as
/// a perfect score.
pub fn result_line(outcome: &Outcome, specs: &[Metric]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(specs.len());
    for m in specs {
        let (_, value) = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .ok_or_else(|| format!("the run produced no {}", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} could not be computed: {value}", m.name));
        }
        metrics.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// The line before it: what identifies the run and how quiet the host was.
pub fn stamp_line(outcome: &Outcome) -> String {
    let mut fields: Vec<String> =
        outcome.stamp.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_string(n)).collect();
    fields.push(format!("\"notes\": [{}]", notes.join(", ")));
    format!("{{\"stamp\": {{{}}}}}", fields.join(", "))
}

/// What `repeat` and `compare` settle a timing metric against when it
/// has no bound of its own: the tenth ISSUE 12 asked of every timing.
const UNGATED_RESOLUTION: f64 = 0.10;

/// The metrics `repeat` and `compare` follow: the end-to-end ones, which
/// are gated, then the timings an untraced run stamps (the per-layer
/// names without a layer prefix), which are not.
fn followed() -> Vec<&'static Metric> {
    let d = declared();
    d.end_to_end.iter().chain(d.per_layer.iter().filter(|m| !m.name.contains('.'))).collect()
}

/// The followed values of several runs: `values[workload][metric][run]`.
pub struct Sets {
    pub values: Vec<Vec<Vec<f64>>>,
}

impl Sets {
    pub fn new() -> Sets {
        Sets { values: vec![vec![Vec::new(); followed().len()]; WORKLOADS.len()] }
    }

    /// Files one untraced run under workload `w`: the gated metrics from
    /// its result line, the others from its stamp.
    pub fn add(&mut self, w: usize, stamp_line: &str, result_line: &str) -> Result<(), String> {
        let (stamp, result) = (Json::parse(stamp_line)?, Json::parse(result_line)?);
        for (m, spec) in followed().iter().enumerate() {
            let gated = result.get("metrics").and_then(|ms| ms.get(&spec.name)?.get("value"));
            let stamped = stamp.get("stamp").and_then(|s| s.get("timings")?.get(&spec.name));
            let value = gated
                .or(stamped)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("no {} in {stamp_line} {result_line}", spec.name))?;
            self.values[w][m].push(value);
        }
        Ok(())
    }

    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .zip(&self.values)
            .map(|(w, metrics)| {
                let fields: Vec<String> = followed()
                    .iter()
                    .zip(metrics)
                    .map(|(m, runs)| {
                        let runs: Vec<String> = runs.iter().map(f64::to_string).collect();
                        format!("\"{}\": [{}]", m.name, runs.join(", "))
                    })
                    .collect();
                format!("  \"{}\": {{{}}}", w.name, fields.join(", "))
            })
            .collect();
        format!("{{\n{}\n}}\n", workloads.join(",\n"))
    }

    pub fn from_json(text: &str) -> Result<Sets, String> {
        let json = Json::parse(text)?;
        let mut sets = Sets::new();
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for (m, metric) in followed().iter().enumerate() {
                let runs = json
                    .get(workload.name)
                    .and_then(|ms| ms.get(&metric.name))
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("no {}.{}", workload.name, metric.name))?;
                sets.values[w][m] = runs.iter().filter_map(Json::as_f64).collect();
            }
        }
        Ok(sets)
    }

    /// Per workload and metric: median, quartiles, range and the bound.
    /// Returns the table and whether every gated metric's range stayed
    /// inside its bound.
    pub fn table(&self) -> (String, bool) {
        let mut out = format!(
            "{:<15} {:<25} {:>12} {:>12} {:>12} {:>7} {:>7} {:>6}\n",
            "workload", "metric", "q1", "median", "q3", "iqr%", "range%", "bound%"
        );
        let mut steady = true;
        for (w, metrics) in WORKLOADS.iter().zip(&self.values) {
            for (m, runs) in followed().iter().zip(metrics) {
                let mid = median(runs);
                let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let range = if mid == 0.0 { 0.0 } else { (hi - lo) / mid };
                let gated = m.bound > 0.0;
                let over = gated && range > m.bound;
                steady &= !over;
                let bound = if gated { format!("{:.1}", 100.0 * m.bound) } else { "-".into() };
                let _ = writeln!(
                    out,
                    "{:<15} {:<25} {:>12.5} {:>12.5} {:>12.5} {:>7.2} {:>7.2} {:>6}{}",
                    w.name,
                    m.name,
                    q1(runs),
                    mid,
                    quantile(runs, 0.75),
                    100.0 * iqr_share(runs),
                    100.0 * range,
                    bound,
                    if over { "  OVER" } else { "" }
                );
            }
        }
        (out, steady)
    }
}

/// Per workload and metric, how `new` stands against `base`: better,
/// worse, within bound, or unresolved when either side's own spread is
/// wider than the bound ([`UNGATED_RESOLUTION`] for a metric without
/// one). Returns the table and whether nothing is worse.
pub fn compare(base: &Sets, new: &Sets) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<25} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base median", "new median", "change%", "bound%"
    );
    let mut none_worse = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in followed().iter().enumerate() {
            let (a, b) = (&base.values[w][m], &new.values[w][m]);
            let (ma, mb) = (median(a), median(b));
            let bound = if metric.bound > 0.0 { metric.bound } else { UNGATED_RESOLUTION };
            // Positive = worse, whichever way the metric points.
            let worse_by = match metric.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let verdict = if iqr_share(a) > bound || iqr_share(b) > bound {
                "unresolved"
            } else if worse_by > bound {
                none_worse = false;
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "{:<15} {:<25} {:>12.5} {:>12.5} {:>+8.2} {:>6.1}  {verdict}",
                workload.name,
                metric.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                100.0 * bound
            );
        }
    }
    (out, none_worse)
}
