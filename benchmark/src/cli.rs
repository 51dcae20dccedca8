//! The command line: one run of one workload (what the benchmark's
//! driver invokes), the whole suite with each run in a fresh child
//! process, and `compare` over two result files.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::api::Json;
use crate::harness::{self, RunArgs, RunReport};
use crate::registry::{Better, MetricDef, Registry};
use crate::stats::Summary;

const USAGE: &str = "\
usage: perf_ledger [--workload NAME] [--seed N] [--seconds S] [--scale-factor F] [--sets K]
       perf_ledger --workload NAME --trace 0|1 [--seed N] [--seconds S] [--scale-factor F]
       perf_ledger compare BASE.json CHANGE.json

Without --trace: runs the suite (or the one workload named), every run in a
fresh child process, prints each metric as `name value unit`, checks outputs,
and writes benchmark/results/latest.json. --sets 2 runs it twice and exits
non-zero when an end-to-end metric disagrees between the sets by more than its
bound.
With --trace: one run of one workload in this process; 0 reports the
end-to-end metrics with tracing off, 1 the per-layer metrics of a traced run.
The last line of output is the run's result as one JSON object.";

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale_factor: f64,
    trace: Option<bool>,
    sets: usize,
}

fn parse(args: &[String], registry: &Registry) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: harness::DEFAULT_SEED,
        seconds: registry.run_seconds,
        scale_factor: 1.0,
        trace: None,
        sets: 1,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                if !registry.workloads.contains(value) {
                    return Err(format!(
                        "unknown workload {value}; one of {}",
                        registry.workloads.join(", ")
                    ));
                }
                options.workload = Some(value.clone());
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds >= 0.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--scale-factor" => {
                options.scale_factor = value.parse().map_err(|_| bad())?;
                if !(options.scale_factor > 0.0 && options.scale_factor <= 4.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--sets" => {
                options.sets = value.parse().map_err(|_| bad())?;
                if !(1..=8).contains(&options.sets) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if options.trace.is_some() && options.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(options)
}

pub fn main(args: Vec<String>) -> ExitCode {
    let registry = Registry::load();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, base, change] => compare(&registry, base, change),
            _ => usage_error("compare takes two result files"),
        };
    }
    let options = match parse(&args, &registry) {
        Ok(options) => options,
        Err(message) => return usage_error(&message),
    };
    match options.trace {
        Some(traced) => {
            let name = options.workload.as_deref().expect("checked by parse");
            let workload = harness::workload(name)
                .expect("BENCHMARK.json and harness::workloads() list the same names");
            let report = harness::run(
                &workload,
                RunArgs {
                    seed: options.seed,
                    seconds: options.seconds,
                    scale_factor: options.scale_factor,
                    traced,
                },
                &registry,
            );
            print_run(&report, &registry);
            if report.end_to_end.is_empty() && report.per_layer.is_empty() {
                eprintln!("perf_ledger: every operation failed, no metric to report");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        None => suite(&options, &registry),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("perf_ledger: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// `benchmark/`, where `out/` and `results/` live: the manifest
/// directory cargo reports when it runs the binary, else the one the
/// binary was compiled in.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Prints one run: every metric as `name value unit`, the checks, the
/// layer table, a `detail` line for the suite, and the result line.
fn print_run(report: &RunReport, registry: &Registry) {
    let args = &report.args;
    println!(
        "# {} seed={} cores={} parallelism={} m={} r={} scale_factor={} traced={}",
        report.workload,
        args.seed,
        harness::cores(),
        harness::parallelism(),
        crate::api::MAP_TASKS,
        crate::api::REDUCE_TASKS,
        args.scale_factor,
        u8::from(args.traced),
    );
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for def in &registry.end_to_end {
        if let Some(s) = report.end_to_end.get(&def.name) {
            println!(
                "{} {} {}  (median {} max {} n {})",
                def.name, s.min, def.unit, s.median, s.max, s.n
            );
            metrics.push((
                def.name.clone(),
                Json::obj([
                    ("value", Json::Num(s.min)),
                    ("unit", Json::str(def.unit.as_str())),
                    ("median", Json::Num(s.median)),
                    ("max", Json::Num(s.max)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            ));
        }
    }
    for def in &registry.per_layer {
        if let Some(&value) = report.per_layer.get(&def.name) {
            println!("{} {} {}", def.name, value, def.unit);
            metrics.push((
                def.name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(def.unit.as_str())),
                ]),
            ));
        }
    }
    println!("ops {} count", report.ops);
    println!("failed_ops {} count", report.failed_ops);
    for check in &report.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict} ({})", check.name, check.note);
    }
    if args.traced {
        println!("layer table: span, count, total s, self s");
        for (name, count, total, own) in report.spans.layer_table() {
            println!("layer {name} {count} {total:.6} {own:.6}");
        }
        let dir = benchmark_dir().join("out");
        let path = dir.join(format!("trace-{}.json", report.workload));
        let trace = report.spans.to_chrome_trace(report.workload).to_string();
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(error) => eprintln!("could not write {}: {error}", path.display()),
        }
    }
    let detail = Json::obj([
        ("workload", Json::str(report.workload)),
        ("traced", Json::Bool(args.traced)),
        ("ops", Json::Num(report.ops as f64)),
        ("failed_ops", Json::Num(report.failed_ops as f64)),
        ("correct", Json::Bool(report.correct())),
        ("digest", Json::str(format!("{:016x}", report.digest))),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("detail {detail}");
    println!("{}", report.result_line(registry));
}

/// One workload's merged record in a result file.
fn merge_details(untraced: &Json, traced: &Json) -> Json {
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let truth = |j: &Json| j.get("correct") == Some(&Json::Bool(true));
    Json::obj([
        ("ops", Json::Num(num(untraced, "ops") + num(traced, "ops"))),
        (
            "failed_ops",
            Json::Num(num(untraced, "failed_ops") + num(traced, "failed_ops")),
        ),
        ("correct", Json::Bool(truth(untraced) && truth(traced))),
        (
            "digest",
            untraced.get("digest").cloned().unwrap_or(Json::Null),
        ),
        (
            "end_to_end",
            untraced.get("metrics").cloned().unwrap_or(Json::Null),
        ),
        (
            "per_layer",
            traced.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ])
}

/// Runs one workload in a fresh child process and returns its `detail`
/// record, echoing the child's report.
fn run_child(options: &Options, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--scale-factor", &options.scale_factor.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(json) => detail = Some(Json::parse(json)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    detail.ok_or_else(|| format!("{workload}: child printed no detail line"))
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn suite(options: &Options, registry: &Registry) -> ExitCode {
    let names: Vec<&String> = registry
        .workloads
        .iter()
        .filter(|w| options.workload.as_ref().is_none_or(|only| only == *w))
        .collect();
    let mut sets: Vec<Json> = Vec::new();
    let mut healthy = true;
    for set in 0..options.sets {
        if options.sets > 1 {
            println!("== set {} of {} ==", set + 1, options.sets);
        }
        let mut records: Vec<(String, Json)> = Vec::new();
        for name in &names {
            let record = run_child(options, name, false).and_then(|untraced| {
                Ok(merge_details(&untraced, &run_child(options, name, true)?))
            });
            match record {
                Ok(record) => {
                    healthy &= record.get("correct") == Some(&Json::Bool(true));
                    records.push(((*name).clone(), record));
                }
                Err(message) => {
                    eprintln!("perf_ledger: {message}");
                    healthy = false;
                }
            }
            println!();
        }
        // The two DS1 strategies resolve one corpus: same pairs, same scores.
        let digest = |name: &str| {
            records
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, r)| r.get("digest").cloned())
        };
        if let (Some(a), Some(b)) = (digest("ds1_blocksplit"), digest("ds1_pairrange")) {
            let same = a == b;
            println!(
                "check ds1_pairrange_digest_equals_ds1_blocksplit {}",
                if same { "ok" } else { "FAILED" }
            );
            healthy &= same;
        }
        sets.push(Json::Obj(records));
    }

    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        (
            "commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        ("cores", Json::Num(harness::cores() as f64)),
        ("parallelism", Json::Num(harness::parallelism() as f64)),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("scale_factor", Json::Num(options.scale_factor)),
        ("sets", Json::Arr(sets.clone())),
    ]);
    let dir = benchmark_dir().join("results");
    let path = dir.join("latest.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{results}\n")))
    {
        Ok(()) => println!("results written to {}", path.display()),
        Err(error) => {
            eprintln!("could not write {}: {error}", path.display());
            healthy = false;
        }
    }

    if let [first, second, ..] = sets.as_slice() {
        println!("== agreement of set 1 and set 2 ==");
        healthy &= print_comparison(
            registry,
            std::slice::from_ref(first),
            std::slice::from_ref(second),
            true,
        );
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A metric's value in every set of one side, in set order.
fn values_of(sets: &[Json], workload: &str, group: &str, name: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|set| {
            set.get(workload)?
                .get(group)?
                .get(name)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// By how much `change` is worse than `base`, as a share of `base`.
fn worsening(def: &MetricDef, base: f64, change: f64) -> f64 {
    if base == 0.0 {
        return if change == base { 0.0 } else { f64::INFINITY };
    }
    let delta = (change - base) / base.abs();
    match def.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// One row per (metric, workload): each side's median over its sets,
/// and a verdict on the bounded (end-to-end) metrics.
///
/// * `unresolved` — a side's own sets range over more than the bound
///   (its run-to-run spread), unless every set of the change reads
///   better than every set of the base;
/// * `REGRESSED` — the change is worse by more than the bound;
/// * with `symmetric` (two sets of one commit) a difference past the
///   bound in either direction is `DISAGREE`, and a count that does
///   not repeat exactly fails too.
///
/// Returns whether every row passed.
fn print_comparison(registry: &Registry, base: &[Json], change: &[Json], symmetric: bool) -> bool {
    let mut pass = true;
    println!(
        "{:<18} {:<40} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "change", "worse %", "bound %"
    );
    for workload in &registry.workloads {
        for (group, defs) in [
            ("end_to_end", &registry.end_to_end),
            ("per_layer", &registry.per_layer),
        ] {
            for def in defs {
                let a = values_of(base, workload, group, &def.name);
                let b = values_of(change, workload, group, &def.name);
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                let (sa, sb) = (Summary::of(&a), Summary::of(&b));
                let worse = worsening(def, sa.median, sb.median);
                let range = |s: &Summary| (s.max - s.min) / s.median.abs();
                let all_better = match def.better {
                    Better::Lower => sb.max < sa.min,
                    Better::Higher => sb.min > sa.max,
                };
                let verdict = match def.bound {
                    Some(bound) if range(&sa).max(range(&sb)) > bound && !all_better => {
                        pass = false;
                        "unresolved"
                    }
                    Some(bound) if symmetric && worse.abs() > bound => {
                        pass = false;
                        "DISAGREE"
                    }
                    Some(bound) if worse > bound => {
                        pass = false;
                        "REGRESSED"
                    }
                    Some(_) => "ok",
                    None if def.unit == "count" && sa.median != sb.median => {
                        pass &= !symmetric;
                        "changed"
                    }
                    None => "",
                };
                println!(
                    "{:<18} {:<40} {:>14.6} {:>14.6} {:>9.2} {:>7}  {verdict}",
                    workload,
                    def.name,
                    sa.median,
                    sb.median,
                    worse * 100.0,
                    def.bound
                        .map_or(String::new(), |b| format!("{:.0}", b * 100.0)),
                );
            }
        }
    }
    pass
}

fn load_sets(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets = root
        .get("sets")
        .and_then(Json::as_arr)
        .filter(|sets| !sets.is_empty())
        .ok_or_else(|| format!("{path}: no result set"))?;
    for key in ["commit", "rustc", "cores", "parallelism", "seed"] {
        if let Some(value) = root.get(key) {
            println!("{path}: {key} = {value}");
        }
    }
    println!("{path}: {} set(s)", sets.len());
    Ok(sets.to_vec())
}

fn compare(registry: &Registry, base: &str, change: &str) -> ExitCode {
    match (load_sets(base), load_sets(change)) {
        (Ok(a), Ok(b)) => {
            if print_comparison(registry, &a, &b, false) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(message), _) | (_, Err(message)) => usage_error(&message),
    }
}

/// The suite's bookkeeping, exercised without running a workload.
#[cfg(test)]
mod tests {
    use super::*;

    fn set(resolve_s: f64, comparisons: f64) -> Json {
        let text = format!(
            r#"{{"ds1_blocksplit":{{"end_to_end":{{"resolve_s":{{"value":{resolve_s},"unit":"s"}}}},
               "per_layer":{{"loadbalance.comparisons":{{"value":{comparisons},"unit":"count"}}}}}}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_counts() {
        let registry = Registry::load();
        let verdict = |base: &[Json], change: &[Json], symmetric| {
            print_comparison(&registry, base, change, symmetric)
        };
        // Values are placed by the declared bound, so the test holds
        // whatever `BENCHMARK.json` sets it to.
        let bound = registry.end_to_end[0].bound.expect("resolve_s is bounded");
        let within = 1.0 + bound / 2.0;
        let beyond = 1.0 + 2.0 * bound;
        let base = [set(1.0, 100.0), set(1.0 + bound / 5.0, 100.0)];
        assert!(verdict(&base, &[set(within, 100.0)], false));
        assert!(!verdict(&base, &[set(beyond, 100.0)], false));
        // Faster is fine across commits, a disagreement between sets of one.
        let faster = 1.0 - 2.0 * bound;
        assert!(verdict(&base[..1], &[set(faster, 100.0)], false));
        assert!(!verdict(&base[..1], &[set(faster, 100.0)], true));
        // A side whose own sets range past the bound: unresolved ...
        let noisy = [set(1.0, 100.0), set(1.0 + 1.5 * bound, 100.0)];
        assert!(!verdict(&noisy, &[set(within, 100.0)], false));
        // ... unless every set of the change beats every set of the base.
        assert!(verdict(
            &noisy,
            &[set(faster, 100.0), set(faster + bound / 2.0, 100.0)],
            false
        ));
        // A count that moves fails only the same-commit agreement.
        assert!(verdict(&base, &[set(1.0, 101.0)], false));
        assert!(!verdict(&base[..1], &[set(1.0, 101.0)], true));
    }

    #[test]
    fn arguments_are_checked() {
        let registry = Registry::load();
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse(&args(&["--workload", "nope"]), &registry).is_err());
        assert!(parse(&args(&["--trace", "1"]), &registry).is_err());
        assert!(parse(&args(&["--seed"]), &registry).is_err());
        let ok = parse(
            &args(&[
                "--workload",
                "sn_repsn",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "0",
            ]),
            &registry,
        )
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, Some(false)));
    }
}
