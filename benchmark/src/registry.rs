//! The benchmark's declared surface, read from `BENCHMARK.json`: the
//! workload names and every metric's unit, direction and bound. The
//! file is compiled in, so the names a run emits and the names the
//! driver expects cannot drift apart.

use crate::api::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the baseline; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Registry {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

impl Registry {
    /// # Panics
    /// If the compiled-in `BENCHMARK.json` is malformed — a defect of
    /// the checkout, not of the run.
    pub fn load() -> Self {
        let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> &[Json] {
            root.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has an array `{key}`"))
        };
        let text = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json entry has a string `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|item| MetricDef {
                    name: text(item, "name"),
                    unit: text(item, "unit"),
                    better: match text(item, "better").as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => panic!("`better` is lower or higher, not {other}"),
                    },
                    bound: item.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Self {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json has a number `run_seconds`"),
        }
    }
}
