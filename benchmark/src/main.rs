//! The benchmark of record for the xqr engine.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//! and prints its metrics, ending with one JSON line (the contract in
//! `BENCHMARK.json`). Without `--workload` it runs every workload, each
//! in a process of its own, untraced and then traced, and writes the
//! collected report to `benchmark/RESULTS.json`. See `README.md`.

mod full;
mod golden;
mod harness;
mod inproc;
mod json;
mod metrics;
mod serve;
mod span;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use xqr_engine::{CompileOptions, Engine, ExecutionMode};

use crate::golden::Digest;
use crate::harness::{Outcome, RunConfig, WARMUP};
use crate::json::Value;
use crate::workload::{Generator, Workload};

/// Where a run leaves its trace and detail files (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str =
    "usage: xqr-benchmark [--workload NAME] [--seed N] [--seconds S] [--warmup S] [--trace 0|1]
                     [--aa] [--smoke] [--bless]
  --workload NAME  run one of xmark-inproc, clio-nested, serve-hot, prepare-cold
                   and end with the result line; without it, run them all
  --seed N         picks request order and literals (default 11)
  --seconds S      measured window (default 20; traced window in a full run: 8)
  --warmup S       untimed passes before the window (default 2)
  --trace 0|1      0: end-to-end metrics, untraced; 1: per-layer metrics, traced
  --aa             run the full set twice and compare the two against the bounds
  --smoke          1 s windows, nothing written to RESULTS.json
  --bless          rewrite golden/*.tsv, cross-checked against the Core interpreter";

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub warmup: Option<f64>,
    pub trace: bool,
    pub aa: bool,
    pub smoke: bool,
    pub bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: None,
        warmup: None,
        trace: false,
        aa: false,
        smoke: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" | "--warmup" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| format!("{flag} takes a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("{flag} must be within (0, 600]"));
                }
                *(if flag == "--seconds" {
                    &mut args.seconds
                } else {
                    &mut args.warmup
                }) = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.bless {
        bless()
    } else if let Some(w) = args.workload {
        run_one(w, &args)
    } else {
        full::run(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload, one mode; the last line printed is the result line.
fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let cfg = RunConfig {
        workload: w,
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds.unwrap_or(full::WINDOW_S)),
        warmup: args.warmup.map_or(WARMUP, Duration::from_secs_f64),
    };
    let outcome = match (w, args.trace) {
        (Workload::ServeHot, false) => serve::measure(&cfg),
        (Workload::ServeHot, true) => serve::trace(&cfg),
        (_, false) => inproc::measure(&cfg),
        (_, true) => inproc::trace(&cfg),
    };
    let defs: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), *u))
            .collect()
    };
    print_report(w, args, &cfg, &outcome, &defs);

    let kind = if args.trace { "layers" } else { "e2e" };
    let path = out_dir().join(format!("{}-{kind}.json", w.name()));
    std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&path, outcome.detail.pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let metrics = defs
        .iter()
        .zip(&outcome.metrics)
        .map(|((name, unit), (n, v))| {
            debug_assert_eq!(name, n);
            (
                name.clone(),
                Value::obj([("value", Value::Num(*v)), ("unit", Value::str(*unit))]),
            )
        });
    let line = Value::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(outcome.failed == 0)
}

fn print_report(w: Workload, args: &Args, cfg: &RunConfig, o: &Outcome, defs: &[(String, &str)]) {
    println!(
        "workload {}  seed {}  window {:.1} s  warm-up {:.1} s  {}",
        w.name(),
        cfg.seed,
        cfg.window.as_secs_f64(),
        cfg.warmup.as_secs_f64(),
        if args.trace {
            "traced, single client"
        } else {
            "untraced"
        }
    );
    println!(
        "requests attempted {}  failed {}  fail_share {}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for ((name, unit), (_, v)) in defs.iter().zip(&o.metrics) {
        println!("  {name:<34} {v:>14.4} {unit}");
    }
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    if !args.trace {
        println!(
            "  samples {}  p99 {} ms (information only)",
            num(&o.detail, "samples"),
            o.detail
                .get("latency_p99_ms")
                .and_then(Value::as_f64)
                .map_or("n/a".into(), |v| format!("{v:.3}")),
        );
        println!(
            "  {:<10} {:>9} {:>11} {:>11}",
            "query", "requests", "p50 ms", "time share"
        );
        for row in o.detail.get("per_query").map_or(&[][..], Value::as_arr) {
            println!(
                "  {:<10} {:>9} {:>11.3} {:>10.1}%",
                text(row, "query"),
                num(row, "requests"),
                num(row, "p50_ms"),
                100.0 * num(row, "time_share")
            );
        }
        return;
    }
    let mean = num(&o.detail, "request_mean_us");
    println!("  {:<16} {:>16} {:>8}", "layer", "self µs/request", "share");
    let mut sum = 0.0;
    for row in o.detail.get("layers").map_or(&[][..], Value::as_arr) {
        sum += num(row, "self_us");
        println!(
            "  {:<16} {:>16.2} {:>7.1}%",
            text(row, "layer"),
            num(row, "self_us"),
            100.0 * num(row, "share")
        );
    }
    let unattributed = num(&o.detail, "unattributed_us");
    let share = unattributed / mean.max(1e-9);
    println!(
        "  {:<16} {:>16.2} {:>7.1}%{}",
        "unattributed",
        unattributed,
        100.0 * share,
        if share > 0.10 { "  <-- above 10 %" } else { "" }
    );
    println!(
        "  {:<16} {:>16.2}          traced request mean {:.2} µs",
        "sum",
        sum + unattributed,
        mean
    );
    for (title, key, a, b) in [
        (
            "execute ms by query (median; share of runtime)",
            "runtime.execute_ms",
            "execute_ms",
            "share_of_runtime",
        ),
        (
            "hottest operators of one profiled pass (self ms; rows)",
            "runtime.top_ops",
            "self_ms",
            "rows",
        ),
    ] {
        let rows = o.detail.get(key).map_or(&[][..], Value::as_arr);
        if rows.is_empty() {
            continue;
        }
        println!("  {title}");
        for row in rows {
            let label = text(row, "query") + &text(row, "operator");
            println!(
                "    {:<44} {:>10.3} {:>12.3}",
                label,
                num(row, a),
                num(row, b)
            );
        }
    }
}

/// Digest of one request's result under `mode`, on a bare engine.
fn digest_under(engine: &Engine, mode: ExecutionMode, text: &str) -> Result<Digest, String> {
    let prepared = engine
        .prepare(text, &CompileOptions::mode(mode))
        .map_err(|e| e.to_string())?;
    let result = prepared.run(engine).map_err(|e| e.to_string())?;
    Ok(Digest::of(
        result.len(),
        xqr_xml::serialize_sequence(&result).as_bytes(),
    ))
}

/// Rewrites `golden/*.tsv`. A row is written only when the compiled
/// path and the Core interpreter agree on it, and the interpreter must
/// also reproduce the rows on requests drawn under another seed (so a
/// `prepare-cold` salt provably leaves the result alone).
fn bless() -> Result<bool, String> {
    for w in Workload::ALL {
        let (uri, xml) = w.document();
        let mut engine = Engine::new();
        engine.bind_document(uri, &xml).map_err(|e| e.to_string())?;
        let mut rows = Vec::new();
        for r in w.reference_requests() {
            let compiled = digest_under(&engine, ExecutionMode::OptimHashJoin, &r.text)
                .map_err(|e| format!("{} {}: {e}\n{}", w.name(), r.key, r.text))?;
            let oracle = digest_under(&engine, ExecutionMode::NoAlgebra, &r.text)
                .map_err(|e| format!("{} {} (NoAlgebra): {e}", w.name(), r.key))?;
            if compiled != oracle {
                return Err(format!(
                    "{} {}: compiled {compiled:?} but the Core interpreter {oracle:?}",
                    w.name(),
                    r.key
                ));
            }
            rows.push((r.key, compiled));
        }
        let blessed: golden::Golden = rows.iter().cloned().collect();
        let mut gen = Generator::new(w, 1, 0);
        for r in (0..2).flat_map(|_| gen.next_pass()) {
            let oracle = digest_under(&engine, ExecutionMode::NoAlgebra, &r.text)?;
            if blessed.get(&r.key) != Some(&oracle) {
                return Err(format!("{} {}: seed 1 gives {oracle:?}", w.name(), r.key));
            }
        }
        let header = format!(
            "{}: request key, items, bytes, FNV-1a-64 of the serialized result.\n\
             Written by --bless; every row agreed with ExecutionMode::NoAlgebra.",
            w.name()
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{}.tsv", w.name()));
        std::fs::write(&path, golden::format(&header, &rows))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("blessed {} rows into {}", rows.len(), path.display());
    }
    Ok(true)
}
