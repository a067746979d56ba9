//! The metric names this benchmark reports. `BENCHMARK.json` lists the
//! same names with their bounds; a test keeps the two in step.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees. `fail_share` is not here: it is 0 on
/// a correct engine and the contract asks for metrics that are never 0,
/// so failures travel in the result line's `failed`/`attempted`/`correct`.
pub const END_TO_END: &[MetricDef] = &[
    ("throughput_qps", "requests/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// The layers, in request order. `engine.prepare` is the time an
/// `Engine::prepare*` call takes beyond the frontend and core stages it
/// runs: the facade, and the plan cache's lookup, insert and evict (the
/// whole call on a hit).
pub const LAYERS: [&str; 8] = [
    "engine.server",
    "engine.service",
    "engine.prepare",
    "frontend",
    "core",
    "runtime",
    "xml",
    "bench",
];

/// The rewrite rules of `xqr_core::rewrite`, as `RewriteStats` names them.
pub const RULES: [&str; 8] = [
    "remove map",
    "insert product",
    "insert join",
    "insert group-by",
    "remove duplicate null",
    "insert outer-join",
    "push omap into outer-join",
    "push omap through index",
];

pub fn rule_metric(rule: &str) -> String {
    format!("core.rule_firings.{}", rule.replace([' ', '-'], "_"))
}

/// Per-layer metrics of the traced run, fixed across workloads: a layer a
/// workload does not enter reports 0. Times are means per traced request
/// unless the name says otherwise.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = vec![
        ("trace.requests".into(), "count", "higher"),
        ("trace.request_us".into(), "us", "lower"),
        ("trace.request_p50_us".into(), "us", "lower"),
        ("trace.untraced_request_us".into(), "us", "lower"),
        ("trace.overhead_share".into(), "ratio", "lower"),
        ("trace.unattributed_share".into(), "ratio", "lower"),
    ];
    for layer in LAYERS {
        out.push((format!("self_us.{layer}"), "us", "lower"));
    }
    let fixed: &[MetricDef] = &[
        ("xml.parse_ms", "ms", "lower"),
        ("xml.parse_mb_s", "MB/s", "higher"),
        ("xml.nodes", "count", "lower"),
        ("xml.index_builds", "count", "lower"),
        ("xml.serialize_ms", "ms", "lower"),
        ("xml.serialize_mb_s", "MB/s", "higher"),
        ("frontend.parse_us", "us", "lower"),
        ("frontend.normalize_us", "us", "lower"),
        ("frontend.query_bytes", "bytes", "lower"),
        ("core.compile_us", "us", "lower"),
        ("core.rewrite_us", "us", "lower"),
        ("core.canon_us", "us", "lower"),
        ("core.plan_ops_compiled", "count", "lower"),
        ("core.plan_ops_rewritten", "count", "lower"),
        ("core.rule_firings", "count", "higher"),
    ];
    out.extend(fixed.iter().map(|(n, u, b)| (n.to_string(), *u, *b)));
    out.extend(RULES.iter().map(|r| (rule_metric(r), "count", "higher")));
    let fixed: &[MetricDef] = &[
        ("plancache.hit_us", "us", "lower"),
        ("plancache.miss_us", "us", "lower"),
        ("plancache.hit_ratio", "ratio", "higher"),
        ("plancache.evictions", "count", "lower"),
        ("runtime.execute_ms", "ms", "lower"),
        ("runtime.share", "ratio", "lower"),
        ("runtime.result_items", "count", "lower"),
        ("runtime.spilled", "count", "lower"),
        ("service.admit_overhead_us", "us", "lower"),
        ("service.queue_wait_us", "us", "lower"),
        ("service.worker_overhead_us", "us", "lower"),
        ("service.observe_us", "us", "lower"),
        ("service.shed", "count", "lower"),
        ("service.doc_reparses", "count", "lower"),
        ("service.rehydrations", "count", "lower"),
        ("server.connect_us", "us", "lower"),
        ("server.first_byte_us", "us", "lower"),
        ("server.read_body_us", "us", "lower"),
        ("server.overhead_us", "us", "lower"),
        ("server.non_200", "count", "lower"),
    ];
    out.extend(fixed.iter().map(|(n, u, b)| (n.to_string(), *u, *b)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).unwrap();
        let own = |defs: Vec<(String, &str, &str)>| -> Vec<(String, String, String)> {
            defs.into_iter()
                .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(
            listed(&doc, "end_to_end"),
            own(END_TO_END
                .iter()
                .map(|(n, u, b)| (n.to_string(), *u, *b))
                .collect())
        );
        assert_eq!(listed(&doc, "per_layer"), own(per_layer()));
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let own: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, own);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), *u))
            .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)));
        for (name, unit) in all {
            assert!(ok(&name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, 16, "_/%.-"), "{unit}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
    }
}
