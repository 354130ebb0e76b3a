//! The names every later claim uses: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the root of the
//! repo is [`benchmark_json`] written out (`--print-benchmark-json`), and a
//! test keeps the two equal, so a name exists in one place only.

use std::collections::BTreeMap;

/// Seconds one run measures; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 16;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "http_query",
        why: "Query-only HTTP, paced then saturated: the server front and wire codec do >90% of the work, the engine ~3 us of a request.",
    },
    WorkloadDecl {
        name: "http_mixed",
        why: "The same paced queries beside one /apply writer: readers stall on the engine write lock, so the query tail is the stall.",
    },
    WorkloadDecl {
        name: "engine_batch",
        why: "No sockets: 256-seeker batches and single queries straight into the engine; a server-front change predicts no change.",
    },
    WorkloadDecl {
        name: "paper_pipeline",
        why: "Discover, organize, explain, recommend on the logical graph: graph, algebra, presentation and none of the index code.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "query_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "query_p98_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "saturation_rps", unit: "req/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "apply_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "batch_qps", unit: "queries/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "single_query_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "heap_bytes_per_user", unit: "B", better: "lower", bound: 0.05 },
    EndToEnd { name: "pipeline_per_s", unit: "ops/s", better: "higher", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate name. The README says how each is measured from outside
/// and which end-to-end metric it should move, on which workload.
pub const PER_LAYER: &[PerLayer] = &[
    layer("server.read_request_us", "us", "lower"),
    layer("server.write_response_us", "us", "lower"),
    layer("server.residual_us", "us", "lower"),
    layer("server.batches_per_query", "ratio", "lower"),
    layer("server.degraded_share", "ratio", "lower"),
    layer("server.query_p99_us", "us", "lower"),
    layer("server.generator_late_p99_us", "us", "lower"),
    layer("server.paced8000_p50_us", "us", "lower"),
    layer("server.paced8000_p99_us", "us", "lower"),
    layer("server.max_rate_in_limit_rps", "req/s", "higher"),
    layer("server.reader_stall_share", "ratio", "lower"),
    layer("content.wire_decode_us", "us", "lower"),
    layer("content.wire_encode_us", "us", "lower"),
    layer("discovery.engine_query_us", "us", "lower"),
    layer("content.clustered_batch_us", "us", "lower"),
    layer("content.exact_batch_us", "us", "lower"),
    layer("content.sorted_accesses_per_query", "count", "lower"),
    layer("content.exact_computations_per_query", "count", "lower"),
    layer("content.empty_query_share", "ratio", "lower"),
    layer("content.same_cluster_batch_qps", "queries/s", "higher"),
    layer("exec.fanout_us", "us", "lower"),
    layer("exec.batch_speedup", "ratio", "higher"),
    layer("workload.generate_site_s", "s", "lower"),
    layer("content.cluster_s", "s", "lower"),
    layer("content.exact_build_s", "s", "lower"),
    layer("content.clustered_build_s", "s", "lower"),
    layer("content.apply_site_ms", "ms", "lower"),
    layer("content.apply_exact_ms", "ms", "lower"),
    layer("content.apply_clustered_ms", "ms", "lower"),
    layer("discovery.try_apply_ms", "ms", "lower"),
    layer("content.apply_changed_entries", "count", "lower"),
    layer("discovery.discover_us", "us", "lower"),
    layer("discovery.recommend_us", "us", "lower"),
    layer("presentation.organize_us", "us", "lower"),
    layer("presentation.explain_us", "us", "lower"),
    layer("algebra.optimize_us", "us", "lower"),
    layer("algebra.eval_us", "us", "lower"),
    layer("graph.link_select_us", "us", "lower"),
    layer("algebra.plan_ops_before", "count", "lower"),
    layer("algebra.plan_ops_after", "count", "lower"),
    layer("trace_overhead_pct.http_query", "%", "lower"),
    layer("trace_overhead_pct.http_mixed", "%", "lower"),
    layer("trace_overhead_pct.engine_batch", "%", "lower"),
    layer("trace_overhead_pct.paper_pipeline", "%", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `(name, unit)` of the metrics a run of the given kind must print.
pub fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The `metrics` object of a result line: every declared name, in
/// declaration order, and no other. A missing, extra or non-finite value is
/// a bug in the run, reported instead of printed around.
pub fn metrics_json(
    declared: &[(&'static str, &'static str)],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|name| !declared.iter().any(|(d, _)| d == *name)) {
        return Err(format!("`{extra}` was measured but is not declared in BENCHMARK.json"));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = values.get(name).ok_or_else(|| format!("`{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("`{name}` is {value}"));
        }
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_is_legal(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_committed_benchmark_json_is_the_registry_written_out() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "run with --print-benchmark-json > BENCHMARK.json");
    }

    #[test]
    fn the_registry_meets_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|name| name_is_legal(name)), "{names:?}");
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.why
            );
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            let legal = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal), "{unit}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn a_result_carries_every_declared_name_and_no_other() {
        for traced in [false, true] {
            let declared = declared(traced);
            let mut values: Values = declared.iter().map(|(name, _)| (*name, 1.5)).collect();
            let json = metrics_json(&declared, &values).unwrap();
            for (name, unit) in &declared {
                let field = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
                assert!(json.contains(&field), "{json}");
            }
            assert_eq!(json.matches("\"value\"").count(), declared.len());

            let dropped = declared[0].0;
            values.remove(dropped);
            assert!(metrics_json(&declared, &values).unwrap_err().contains(dropped));
            values.insert(dropped, 1.5);
            values.insert("not_declared", 1.0);
            assert!(metrics_json(&declared, &values).unwrap_err().contains("not_declared"));
            values.remove("not_declared");
            values.insert(dropped, f64::NAN);
            assert!(metrics_json(&declared, &values).is_err());
        }
    }
}
