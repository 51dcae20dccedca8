//! A 10 %-scale smoke of all six workloads: what a run emits is what
//! `BENCHMARK.json` declares, by name, and every value is a number.

use std::collections::BTreeSet;

use perf_ledger::api::Json;
use perf_ledger::harness::{self, RunArgs, DEFAULT_SEED};
use perf_ledger::registry::Registry;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn harness_and_benchmark_json_list_the_same_workloads() {
    let names: Vec<&str> = harness::workloads().iter().map(|w| w.name).collect();
    assert_eq!(names, Registry::load().workloads);
}

/// One untraced and one traced run of `name` at 10 % scale.
fn smoke(name: &str) {
    let registry = Registry::load();
    let workload = &harness::workload(name).expect("a declared workload");
    for traced in [false, true] {
        let report = harness::run(
            workload,
            RunArgs {
                seed: DEFAULT_SEED,
                seconds: 0.0,
                scale_factor: 0.1,
                traced,
            },
            &registry,
        );
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
        assert!(
            report.correct(),
            "{}: {} failed ops, failed checks {failed:?}",
            workload.name,
            report.failed_ops
        );
        assert!(report.ops >= 3);

        let line = report.result_line(&registry);
        let Json::Obj(members) = &line else {
            panic!("the result line is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        let declared = if traced {
            &registry.per_layer
        } else {
            &registry.end_to_end
        };
        let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, expected, "{} traced={traced}", workload.name);
        for (name, metric) in metrics {
            assert!(well_formed(name), "metric name {name}");
            let value = metric.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{}: {name} = {metric}",
                workload.name
            );
            let unit = metric.get("unit").and_then(Json::as_str);
            let declared_unit = declared
                .iter()
                .find(|m| &m.name == name)
                .map(|m| m.unit.as_str());
            assert_eq!(unit, declared_unit);
        }
        if !traced {
            for (name, summary) in &report.end_to_end {
                assert!(summary.min > 0.0, "{name} is never 0");
            }
        }
    }
}

// One test per workload, so the test runner spreads them over the cores.
#[test]
fn ds1_blocksplit() {
    smoke("ds1_blocksplit");
}

#[test]
fn ds1_pairrange() {
    smoke("ds1_pairrange");
}

#[test]
fn scan_smallblocks() {
    smoke("scan_smallblocks");
}

#[test]
fn sn_repsn() {
    smoke("sn_repsn");
}

#[test]
fn lsh_8x4() {
    smoke("lsh_8x4");
}

#[test]
fn tenants_mixed() {
    smoke("tenants_mixed");
}

/// The limits the benchmark's driver checks before a single run.
#[test]
fn benchmark_json_meets_the_contract() {
    let root = Json::parse(BENCHMARK_JSON).unwrap();
    let Json::Obj(members) = &root else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: BTreeSet<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let list = |key: &str| root.get(key).and_then(Json::as_arr).unwrap();
    let text = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

    let command = list("command");
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert_eq!(list("paths"), [Json::str("benchmark")]);
    let seconds = root.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for workload in workloads {
        let why = text(workload, "why");
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
        let name = text(workload, "name");
        assert!(well_formed(&name) && names.insert(name));
    }
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for (key, range, bounded) in [("end_to_end", 1..=16, true), ("per_layer", 1..=128, false)] {
        let metrics = list(key);
        assert!(range.contains(&metrics.len()));
        for metric in metrics {
            let name = text(metric, "name");
            assert!(well_formed(&name) && names.insert(name.clone()), "{name}");
            assert!(unit_ok(&text(metric, "unit")), "{name}");
            assert!(["lower", "higher"].contains(&text(metric, "better").as_str()));
            let bound = metric.get("bound").and_then(Json::as_f64);
            assert_eq!(bound.is_some(), bounded, "{name}");
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{name}");
        }
    }
    let setup = list("end_to_end")
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (text(setup, "unit"), text(setup, "better")),
        ("s".to_string(), "lower".to_string())
    );
}
