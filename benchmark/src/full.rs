//! The full run: every workload in a process of its own (so workloads
//! share neither a heap nor the process-wide metrics registry), untraced
//! and then traced, collected into `benchmark/RESULTS.json`.

use std::path::Path;
use std::process::Command;

use crate::harness::{SETUPS, WARMUP};
use crate::json::{self, Value};
use crate::workload::Workload;
use crate::{out_dir, Args};

/// Measured window of every workload, seconds: the one constant to
/// shrink or grow. `BENCHMARK.json`'s `run_seconds` carries the same
/// value to the driver.
pub const WINDOW_S: f64 = 20.0;
/// Traced window of a full run.
const TRACE_WINDOW_S: f64 = 8.0;
/// `--smoke` windows.
const SMOKE_S: f64 = 1.0;

struct Child {
    metrics: Vec<(String, f64)>,
    attempted: f64,
    failed: f64,
    detail: Value,
}

/// Runs this executable on one workload and reads back its result line
/// and its detail file.
fn child(w: Workload, seed: u64, seconds: f64, warmup: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--warmup", &warmup.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{}: no result line", w.name()))?;
    println!("{report}\n");
    let result = json::parse(line).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    let num = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let metrics = result
        .get("metrics")
        .map_or(&[][..], Value::as_obj)
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    let kind = if traced { "layers" } else { "e2e" };
    let path = out_dir().join(format!("{}-{kind}.json", w.name()));
    let detail = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|t| json::parse(&t))?;
    Ok(Child {
        metrics,
        attempted: num("attempted"),
        failed: num("failed"),
        detail,
    })
}

fn metrics_obj(metrics: &[(String, f64)]) -> Value {
    Value::obj(metrics.iter().map(|(n, v)| (n.clone(), Value::Num(*v))))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| json::parse(&t))?;
    let (window, trace_window, warmup) = if args.smoke {
        (SMOKE_S, SMOKE_S, 0.2)
    } else {
        (
            args.seconds.unwrap_or(WINDOW_S),
            TRACE_WINDOW_S,
            args.warmup.unwrap_or(WARMUP.as_secs_f64()),
        )
    };

    let mut all_correct = true;
    let mut first: Vec<(Workload, Child, Child)> = Vec::new();
    for w in Workload::ALL {
        let e2e = child(w, args.seed, window, warmup, false)?;
        let layers = child(w, args.seed, trace_window, warmup, true)?;
        all_correct &= e2e.failed == 0.0 && layers.failed == 0.0;
        first.push((w, e2e, layers));
    }

    // A/A: the same build and seed again, in reverse workload order.
    let mut noise = Value::Null;
    let mut within_bounds = true;
    if args.aa {
        let mut per_workload = Vec::new();
        println!("A/A: second set, reverse order\n");
        for (w, a, _) in first.iter().rev() {
            let b = child(*w, args.seed, window, warmup, false)?;
            all_correct &= b.failed == 0.0;
            println!(
                "A/A {:<14} {:<16} {:>12} {:>12} {:>9} {:>7}",
                w.name(),
                "metric",
                "first",
                "second",
                "diff",
                "bound"
            );
            let mut rows = Vec::new();
            for m in contract.get("end_to_end").map_or(&[][..], Value::as_arr) {
                let name = m.get("name").and_then(Value::as_str).unwrap_or("");
                let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
                let value = |c: &Child| {
                    c.metrics
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(f64::NAN, |(_, v)| *v)
                };
                let (x, y) = (value(a), value(&b));
                let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
                let within = diff <= bound;
                within_bounds &= within;
                println!(
                    "    {:<14} {:<16} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%{}",
                    "",
                    name,
                    x,
                    y,
                    100.0 * diff,
                    100.0 * bound,
                    if within {
                        ""
                    } else {
                        "  <-- exceeds its bound"
                    }
                );
                rows.push((
                    name.to_string(),
                    Value::obj([
                        ("first", Value::Num(x)),
                        ("second", Value::Num(y)),
                        ("rel_diff", Value::Num(diff)),
                        ("bound", Value::Num(bound)),
                        ("within", Value::Bool(within)),
                    ]),
                ));
            }
            println!();
            per_workload.push((w.name().to_string(), Value::Obj(rows)));
        }
        per_workload.reverse();
        noise = Value::Obj(per_workload);
    }

    let why = |w: Workload| {
        contract
            .get("workloads")
            .map_or(&[][..], Value::as_arr)
            .iter()
            .find(|x| x.get("name").and_then(Value::as_str) == Some(w.name()))
            .and_then(|x| x.get("why").cloned())
            .unwrap_or(Value::Null)
    };
    let workloads = first
        .iter()
        .map(|(w, e2e, layers)| {
            Value::obj([
                ("name", Value::str(w.name())),
                ("why", why(*w)),
                ("attempted", Value::Num(e2e.attempted)),
                ("failed", Value::Num(e2e.failed)),
                (
                    "fail_share",
                    Value::Num(e2e.failed / e2e.attempted.max(1.0)),
                ),
                ("end_to_end", metrics_obj(&e2e.metrics)),
                ("detail", e2e.detail.clone()),
                ("per_layer", metrics_obj(&layers.metrics)),
                ("traced", layers.detail.clone()),
            ])
        })
        .collect();
    let head = Command::new("git")
        .args([
            "-C",
            &manifest.to_string_lossy(),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Value::Null, |o| {
            Value::str(String::from_utf8_lossy(&o.stdout).trim())
        });
    let report = Value::obj([
        (
            "benchmark",
            Value::str("xqr benchmark of record; the contract is ../BENCHMARK.json"),
        ),
        (
            "command",
            contract.get("command").cloned().unwrap_or(Value::Null),
        ),
        (
            "paths",
            contract.get("paths").cloned().unwrap_or(Value::Null),
        ),
        ("git_head_when_run", head),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("seed", Value::Num(args.seed as f64)),
        ("window_s", Value::Num(window)),
        ("warmup_s", Value::Num(warmup)),
        ("trace_window_s", Value::Num(trace_window)),
        ("fewest_cold_setups", Value::Num(SETUPS as f64)),
        (
            "end_to_end_metrics",
            contract.get("end_to_end").cloned().unwrap_or(Value::Null),
        ),
        ("workloads", Value::Arr(workloads)),
        ("noise", noise),
        ("claim", Value::Null),
    ]);
    if args.smoke {
        println!("smoke run: RESULTS.json left as it was");
    } else {
        let path = manifest.join("RESULTS.json");
        std::fs::write(&path, report.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if !all_correct {
        eprintln!("some responses did not match their golden digest");
    }
    if !within_bounds {
        eprintln!("A/A: two runs of the same build differ by more than a metric's bound");
    }
    Ok(all_correct && within_bounds)
}
