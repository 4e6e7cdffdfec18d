//! The metric catalogue (one table: name, unit, direction, bound, layer),
//! the result files built from it, `BENCHMARK.json`, and `compare`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::recorder::{median, quartiles};
use crate::sut;

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value, or 0 for a metric that does not apply to this workload.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// The repository module the metric belongs to.
    pub layer: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the system sees. All come from the
/// untraced run; the three measured ones are medians of eight per-slice
/// values.
///
/// Five of the issue's eight do not gate and are per-layer here.
/// `fail_share` and `scan_rows_per_s` are 0 on some workloads, and the
/// contract wants end-to-end metrics that never are. The p99s, and the
/// latencies at `rate_hi`, spread by 20-100 % of their median between seeds
/// on the two-core reference host (one checkpoint stall or one descheduled
/// executor sets them) — wider than any bound the contract allows.
pub fn end_to_end() -> Vec<MetricDef> {
    let def = |name: &str, unit, better, bound| MetricDef {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
        layer: "end-to-end",
    };
    vec![
        def("setup_s", "s", Lower, 0.25),
        def("peak_tps", "1/s", Higher, 0.25),
        def("cpu_us_per_txn", "us", Lower, 0.25),
        def("lat_mid_p50_us", "us", Lower, 0.25),
    ]
}

/// The per-layer metrics, grouped by the module they attribute to. They come
/// from the traced run and carry no bound.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    let mut layer = |layer: &'static str, rows: &[(&str, &'static str, Better)]| {
        for &(name, unit, better) in rows {
            defs.push(MetricDef {
                name: name.into(),
                unit,
                better,
                bound: None,
                layer,
            });
        }
    };
    layer(
        "driver",
        &[
            ("driver.attempted", "count", Higher),
            ("driver.committed", "count", Higher),
            ("driver.aborted", "count", Lower),
            ("driver.gave_up", "count", Lower),
            ("driver.fail_share", "ratio", Lower),
            ("driver.samples", "count", Higher),
            ("lat_mid_p99_us", "us", Lower),
            ("lat_hi_p50_us", "us", Lower),
            ("lat_hi_p99_us", "us", Lower),
            ("driver.gen_late_p99_us", "us", Lower),
            ("driver.backlog_growth_us", "us", Lower),
            ("driver.lat_max_us", "us", Lower),
            ("driver.slo_rate_tps", "1/s", Higher),
            ("driver.trace_overhead_share", "ratio", Lower),
            ("driver.self_ns", "ns", Lower),
        ],
    );
    layer("workloads", &[("workloads.next_program_ns", "ns", Lower)]);
    layer(
        "core.program",
        &[
            ("core.program.prepare_ns", "ns", Lower),
            ("core.program.flow_graph_ns", "ns", Lower),
        ],
    );
    layer(
        "engine",
        &[
            ("engine.execute_p50_us", "us", Lower),
            ("engine.execute_share", "ratio", Lower),
        ],
    );
    layer(
        "core.dispatch",
        &[
            ("core.dispatch.messages_per_txn", "count", Lower),
            ("core.dispatch.batches_per_txn", "count", Lower),
            ("core.dispatch.drains_per_txn", "count", Lower),
            ("core.dispatch.actions_per_txn", "count", Lower),
            ("core.dispatch.wasted_actions_per_txn", "count", Lower),
            ("core.dispatch.secondary_fallbacks_per_txn", "count", Lower),
            ("core.dispatch.roundtrip_us", "us", Lower),
        ],
    );
    layer(
        "core.locallock",
        &[
            ("core.locallock.acquires_per_txn", "count", Lower),
            ("core.locallock.elided_per_txn", "count", Higher),
            ("core.locallock.acquire_release_ns", "ns", Lower),
            ("time.dora_local_ns_per_txn", "ns", Lower),
            ("time.dora_local_wait_ns_per_txn", "ns", Lower),
        ],
    );
    layer("core.routing", &[("core.routing.route_ns", "ns", Lower)]);
    layer(
        "storage.lock",
        &[
            ("storage.lock.row_locks_per_txn", "count", Lower),
            ("storage.lock.higher_locks_per_txn", "count", Lower),
            ("storage.lock.waits_per_ktxn", "count", Lower),
            ("storage.lock.deadlocks_per_ktxn", "count", Lower),
            ("storage.lock.acquire_release_ns", "ns", Lower),
            ("time.lockmgr_ns_per_txn", "ns", Lower),
            ("time.lockmgr_contention_ns_per_txn", "ns", Lower),
            ("time.lock_wait_ns_per_txn", "ns", Lower),
        ],
    );
    layer(
        "storage.latch",
        &[
            ("storage.latch.contended_share", "ratio", Lower),
            ("time.other_contention_ns_per_txn", "ns", Lower),
        ],
    );
    layer(
        "storage.log",
        &[
            ("storage.log.records_per_txn", "count", Lower),
            ("storage.log.flushes_per_ktxn", "count", Lower),
            ("storage.log.group_size_mean", "count", Higher),
            ("storage.log.fences_per_txn", "count", Lower),
            ("storage.log.checkpoints", "count", Lower),
            ("storage.log.retained_records_end", "count", Lower),
            ("storage.log.append_ns", "ns", Lower),
            ("storage.log.commit_flush_us", "us", Lower),
            ("time.log_wait_ns_per_txn", "ns", Lower),
            ("time.commit_wait_ns_per_txn", "ns", Lower),
        ],
    );
    layer(
        "storage.buffer",
        &[
            ("storage.buffer.hit_share", "ratio", Higher),
            ("storage.buffer.misses_per_ktxn", "count", Lower),
            ("storage.buffer.pages_total", "count", Lower),
        ],
    );
    layer(
        "storage.btree",
        &[
            ("storage.btree.get_ns", "ns", Lower),
            ("storage.btree.insert_ns", "ns", Lower),
            ("storage.btree.depth", "count", Lower),
        ],
    );
    layer(
        "storage.heap",
        &[
            ("storage.heap.read_ns", "ns", Lower),
            ("storage.heap.insert_ns", "ns", Lower),
            ("storage.heap.update_ns", "ns", Lower),
        ],
    );
    layer(
        "storage.db",
        &[
            ("storage.db.read_ns", "ns", Lower),
            ("storage.db.read_locked_ns", "ns", Lower),
            ("storage.db.update_commit_us", "us", Lower),
        ],
    );
    layer(
        "storage.mvcc",
        &[
            ("storage.mvcc.versions_created_per_txn", "count", Lower),
            ("storage.mvcc.reclaimed_share", "ratio", Higher),
            ("storage.mvcc.chain_len_max", "count", Lower),
            ("storage.mvcc.live_versions_end", "count", Lower),
            ("storage.mvcc.snapshot_open_ns", "ns", Lower),
            ("storage.mvcc.snapshot_read_ns", "ns", Lower),
            ("storage.mvcc.scan_rows_per_s", "1/s", Higher),
            ("storage.mvcc.scan_row_ns", "ns", Lower),
            ("storage.mvcc.staleness_mean", "count", Lower),
        ],
    );
    layer(
        "storage.recover",
        &[
            ("storage.recover.replay_s", "s", Lower),
            ("storage.recover.records_per_s", "1/s", Higher),
        ],
    );
    layer("server", &[("server.submit_overhead_ns", "ns", Lower)]);
    layer(
        "metrics",
        &[
            ("time.work_ns_per_txn", "ns", Lower),
            ("time.engine_overhead_ns_per_txn", "ns", Lower),
            ("metrics.snapshot_us", "us", Lower),
        ],
    );
    layer(
        "mem",
        &[
            ("mem.rss_end_mb", "MB", Lower),
            ("mem.rss_kb_per_ktxn", "kB", Lower),
        ],
    );
    for label in sut::all_txn_labels() {
        for stat in ["p50_us", "p99_us"] {
            defs.push(MetricDef {
                name: format!("txn.{label}.{stat}"),
                unit: "us",
                better: Lower,
                bound: None,
                layer: "driver",
            });
        }
    }
    defs
}

/// How long one run measures (`--seconds`): the two measured phases of an
/// untraced run take half each.
pub const RUN_SECONDS: u64 = 15;

/// The contract file, generated from the catalogue so the two cannot drift.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = sut::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {}",
                Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]).render()
            )
        })
        .collect();
    let metric = |def: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(def.name.clone())),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.word())),
        ];
        if let Some(bound) = def.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        format!("    {}", Json::obj(fields).render())
    };
    let end_to_end: Vec<String> = end_to_end().iter().map(metric).collect();
    let per_layer: Vec<String> = per_layer().iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// `{"name": {"value": v, "unit": u}, ...}` for exactly the catalogue's
/// metrics, in catalogue order.
pub fn metrics_json(defs: &[MetricDef], values: &Metrics) -> Json {
    Json::obj(defs.iter().map(|def| {
        (
            def.name.clone(),
            Json::obj([
                ("value", Json::Num(values.get(&def.name))),
                ("unit", Json::str(def.unit)),
            ]),
        )
    }))
}

/// Prints every metric of `defs` by name with its unit, grouped by layer.
pub fn print_metrics(defs: &[MetricDef], values: &Metrics, notes: &BTreeMap<String, String>) {
    let mut layer = "";
    for def in defs {
        if def.layer != layer {
            layer = def.layer;
            println!("  [{layer}]");
        }
        let note = notes.get(&def.name).map(String::as_str).unwrap_or("");
        println!(
            "    {:<46} {:>16.4} {:<6} {note}",
            def.name,
            values.get(&def.name),
            def.unit
        );
    }
}

/// Checks that a run's final JSON line has the contract's shape: exactly the
/// keys `correct`, `attempted`, `failed`, `metrics`, and exactly the metrics
/// `BENCHMARK.json` (given as parsed `spec`) lists for this `trace` mode.
pub fn validate_result(spec: &Json, result: &Json, traced: bool) -> Result<(), String> {
    let keys: Vec<&str> = result
        .as_obj()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    result
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("`correct` is not a boolean")?;
    for key in ["attempted", "failed"] {
        let n = result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("`{key}` is not a number"))?;
        if n.fract() != 0.0 || n < 0.0 {
            return Err(format!("`{key}` is not a whole number: {n}"));
        }
    }
    let section = if traced { "per_layer" } else { "end_to_end" };
    let expected = spec
        .get(section)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no `{section}`"))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("`metrics` is not an object")?;
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics reported, {} expected",
            metrics.len(),
            expected.len()
        ));
    }
    for def in expected {
        let name = def
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let unit = def
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without a unit")?;
        let got = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .ok_or(format!("metric `{name}` missing"))?;
        if got.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("metric `{name}` has the wrong unit"));
        }
        got.get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("metric `{name}` has no numeric value"))?;
    }
    Ok(())
}

/// Median and quartiles of each metric over repeated runs; prints them.
pub fn aggregate(defs: &[MetricDef], runs: &[Metrics]) -> Json {
    Json::obj(defs.iter().map(|def| {
        let values: Vec<f64> = runs.iter().map(|run| run.get(&def.name)).collect();
        let (q1, q3) = quartiles(&values);
        let median = median(&values);
        println!(
            "  {:<46} {median:>16.4} ({q1:.4} .. {q3:.4}) {}",
            def.name, def.unit
        );
        (
            def.name.clone(),
            Json::obj([
                ("value", Json::Num(median)),
                ("unit", Json::str(def.unit)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
            ]),
        )
    }))
}

/// A rise of `driver.fail_share` above this (absolute) fails `compare`.
const FAIL_SHARE_RISE: f64 = 0.005;

fn metric_value(file: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compares two result files (`a` the parent, `b` the change). Prints every
/// metric; returns the end-to-end regressions (empty = pass).
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut regressions = Vec::new();
    for workload in sut::WORKLOADS.iter().map(|w| w.name) {
        println!("{workload}");
        for def in end_to_end() {
            let (Some(before), Some(after)) = (
                metric_value(a, workload, "end_to_end", &def.name),
                metric_value(b, workload, "end_to_end", &def.name),
            ) else {
                continue;
            };
            let worsening = match def.better {
                Lower => (after - before) / before,
                Higher => (before - after) / before,
            };
            let bound = def.bound.unwrap_or(0.0);
            let verdict = if worsening > bound {
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "  {:<46} {before:>14.4} -> {after:>14.4} {:<5} worse by {:>+7.2} % (bound {:.0} %) {verdict}",
                def.name,
                def.unit,
                worsening * 100.0,
                bound * 100.0
            );
            if worsening > bound {
                regressions.push(format!(
                    "{workload}.{} worse by {:.1} %",
                    def.name,
                    worsening * 100.0
                ));
            }
        }
        for def in per_layer() {
            let (Some(before), Some(after)) = (
                metric_value(a, workload, "per_layer", &def.name),
                metric_value(b, workload, "per_layer", &def.name),
            ) else {
                continue;
            };
            println!(
                "  {:<46} {before:>14.4} -> {after:>14.4} {}",
                def.name, def.unit
            );
            if def.name == "driver.fail_share" && after > before + FAIL_SHARE_RISE {
                regressions.push(format!(
                    "{workload}.driver.fail_share rose {before:.4} -> {after:.4}"
                ));
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
        for def in e2e.iter().chain(&layers) {
            assert!(def.name.len() <= 64, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `dora-benchmark spec > BENCHMARK.json`"
        );
        let spec = Json::parse(&committed).unwrap();
        assert!(committed.len() <= 64 * 1024);
        let keys: Vec<&str> = spec
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn validate_accepts_a_conforming_result_and_rejects_others() {
        let spec = Json::parse(&benchmark_json()).unwrap();
        let mut values = Metrics::default();
        values.set("setup_s", 0.5);
        let good = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(0.0)),
            ("metrics", metrics_json(&end_to_end(), &values)),
        ]);
        validate_result(&spec, &good, false).unwrap();
        assert!(
            validate_result(&spec, &good, true).is_err(),
            "wrong metric set for a traced run"
        );
        let missing_key = Json::obj([("correct", Json::Bool(true))]);
        assert!(validate_result(&spec, &missing_key, false).is_err());
    }

    #[test]
    fn compare_gates_end_to_end_metrics_and_fail_share_only() {
        let file = |tps: f64, fail_share: f64, depth: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "tpcb",
                    Json::obj([
                        (
                            "end_to_end",
                            Json::obj([("peak_tps", Json::obj([("value", Json::Num(tps))]))]),
                        ),
                        (
                            "per_layer",
                            Json::obj([
                                (
                                    "driver.fail_share",
                                    Json::obj([("value", Json::Num(fail_share))]),
                                ),
                                (
                                    "storage.btree.depth",
                                    Json::obj([("value", Json::Num(depth))]),
                                ),
                            ]),
                        ),
                    ]),
                )]),
            )])
        };
        let parent = file(10_000.0, 0.0, 3.0);
        assert!(
            compare(&parent, &file(8_000.0, 0.0, 9.0)).is_empty(),
            "20 % is within the bound; per-layer is not gated"
        );
        assert_eq!(compare(&parent, &file(7_000.0, 0.0, 3.0)).len(), 1);
        assert_eq!(compare(&parent, &file(10_000.0, 0.01, 3.0)).len(), 1);
        assert!(compare(&parent, &file(12_000.0, 0.0, 3.0)).is_empty());
    }
}
