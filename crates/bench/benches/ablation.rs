//! Ablation bench: which of the Section 5 rewrite-rule families buys what?
//!
//! Runs the Clio N3 mapping query (triple-nested, 3-way join) under rule
//! subsets:
//!
//! * `none`        — naive compiled plan (≡ Algebra + No optim);
//! * `joins-only`  — product/join insertion without group-by unnesting
//!   (nested blocks stay dependent — joins rarely become visible);
//! * `unnest-only` — group-bys introduced but joins stay nested-loop
//!   dependent evaluations;
//! * `paper`       — the full Fig. 5 rule set, without the deep-nesting
//!   push extensions of DESIGN.md §4a;
//! * `full`        — everything.
//!
//! Expected shape: `full ≤ paper ≪ unnest-only ≈ joins-only ≈ none`.

use criterion::{criterion_group, criterion_main, Criterion};
use xqr_bench::clio_engine;
use xqr_engine::{CompileOptions, ExecutionMode, RuleConfig};

fn configs() -> Vec<(&'static str, RuleConfig)> {
    vec![
        ("none", RuleConfig::none()),
        (
            "joins-only",
            RuleConfig {
                remove_map: true,
                unnesting: false,
                join_insertion: true,
                push_rules: false,
            },
        ),
        (
            "unnest-only",
            RuleConfig {
                remove_map: true,
                unnesting: true,
                join_insertion: false,
                push_rules: false,
            },
        ),
        (
            "paper",
            RuleConfig {
                remove_map: true,
                unnesting: true,
                join_insertion: true,
                push_rules: false,
            },
        ),
        ("full", RuleConfig::all()),
    ]
}

fn bench_ablation(c: &mut Criterion) {
    let (engine, len) = clio_engine(25_000);
    let q = xqr_clio::mapping_query(3);
    let mut group = c.benchmark_group(format!("ablation/N3-{}K", len / 1000));
    group.sample_size(10);
    for (label, rules) in configs() {
        let options = CompileOptions::with_rules(ExecutionMode::OptimHashJoin, rules);
        let prepared = engine.prepare(&q, &options).expect("prepare");
        group.bench_function(label, |b| {
            b.iter(|| prepared.run(&engine).expect("run"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
