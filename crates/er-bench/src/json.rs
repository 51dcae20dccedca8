//! Machine-readable bench exports: `BENCH_<name>.json`.
//!
//! The criterion shim prints human-readable numbers to stdout only, so
//! cross-PR performance trajectories used to require scraping logs.
//! This module gives every bench target a structured export instead:
//! a tiny JSON value type with a writer and a strict parser (both
//! dependency-free — the build container has no crates.io access), and
//! [`write_bench_json`], which drops `BENCH_<name>.json` into
//! [`bench_json_dir`]. CI smoke-runs the exporting benches and
//! re-parses their exports with [`Json::parse`], so the format cannot
//! rot silently.
//!
//! The value type itself now lives in [`mr_engine::json`] so the
//! engine's JSONL trace sink can use it without depending on this
//! crate; everything is re-exported here, so existing callers keep
//! compiling unchanged. The path-anchored export helpers stay local —
//! they are bench-harness policy, not engine machinery.

use std::path::{Path, PathBuf};

pub use mr_engine::json::{Json, MAX_PARSE_DEPTH};

/// Environment variable overriding the export directory.
pub const JSON_DIR_ENV: &str = "ER_BENCH_JSON_DIR";

/// Directory bench exports land in: `$ER_BENCH_JSON_DIR`, defaulting
/// to `<workspace>/target/bench-json`. The default is anchored on this
/// crate's manifest dir (not the cwd) because cargo runs bench
/// binaries from the package root, which would scatter exports across
/// per-crate `target/` dirs.
pub fn bench_json_dir() -> PathBuf {
    match std::env::var_os(JSON_DIR_ENV) {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("target")
            .join("bench-json"),
    }
}

/// Writes `BENCH_<name>.json` into [`bench_json_dir`] (creating it)
/// and returns the full path. A one-line confirmation goes to stdout
/// so bench logs point at their machine-readable twin.
pub fn write_bench_json(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    write_bench_json_in(&bench_json_dir(), name, value)
}

/// [`write_bench_json`] with an explicit target directory — for
/// callers (and tests) that must not depend on the process-global
/// `ER_BENCH_JSON_DIR` environment.
pub fn write_bench_json_in(dir: &Path, name: &str, value: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{value}\n"))?;
    println!("bench json: wrote {}", path.display());
    Ok(path)
}

/// Median of a sample set (upper median for even sizes — matches the
/// criterion shim's report).
pub fn median_ms(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_json_type_roundtrips() {
        // The value machinery lives in mr-engine now; this guards the
        // re-export surface er-bench callers compile against.
        let value = Json::obj([("bench", Json::str("unit")), ("wall_ms", Json::Num(1.5))]);
        assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
    }

    #[test]
    fn median_is_the_upper_middle_sample() {
        assert_eq!(median_ms(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_ms(&[4.0, 1.0, 2.0, 3.0]), 3.0);
        assert_eq!(median_ms(&[7.5]), 7.5);
    }

    #[test]
    fn bench_json_lands_in_the_requested_dir() {
        // Uses the explicit-dir entry point rather than mutating the
        // process-global ER_BENCH_JSON_DIR (tests run multi-threaded).
        let dir = std::env::temp_dir().join(format!("er-bench-json-test-{}", std::process::id()));
        let path =
            write_bench_json_in(&dir, "unit_test", &Json::obj([("ok", Json::Bool(true))])).unwrap();
        assert_eq!(path, dir.join("BENCH_unit_test.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_bench_json_dir_is_workspace_target() {
        // Read-only check of the default mapping; the env override
        // branch is a one-line match exercised by CI via the real
        // export + validator pair.
        if std::env::var_os(JSON_DIR_ENV).is_none() {
            let dir = bench_json_dir();
            assert!(dir.ends_with("target/bench-json"), "got {}", dir.display());
        }
    }
}
