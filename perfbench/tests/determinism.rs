//! Determinism self-test: at a tiny size, two runs with the same seed give
//! identical quality and work counts, and every metric `BENCHMARK.json`
//! names is reported with its unit.

use std::path::PathBuf;

use perfbench::{run, Report, Settings, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, seed: u64, traced: bool, tag: &str) -> Report {
    let base =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{workload}-{tag}"));
    let settings = Settings {
        seed,
        seconds: 2.0,
        tiny: true,
        scratch: base.join("data"),
        out: base.join("out"),
    };
    let report = run(workload, &settings, traced).expect("tiny run succeeds");
    assert!(report.correct, "{workload}: every output check passes ({} failed)", report.failed);
    assert!(report.attempted > 0);
    report
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics.get(name).unwrap_or_else(|| panic!("metric {name} reported")).0
}

fn info<'a>(r: &'a Report, key: &str) -> &'a str {
    &r.info.iter().find(|(k, _)| *k == key).unwrap_or_else(|| panic!("{key} recorded")).1
}

fn check(workload: &str) {
    let a = tiny(workload, 7, false, "a");
    let b = tiny(workload, 7, false, "b");
    assert_eq!(value(&a, "converged_frac").to_bits(), value(&b, "converged_frac").to_bits());
    assert_eq!(info(&a, "width_mean"), info(&b, "width_mean"));
    let names: Vec<(&str, &str)> =
        a.metrics.iter().map(|(n, (_, u))| (n.as_str(), u.as_str())).collect();
    let mut want = END_TO_END.to_vec();
    want.sort();
    assert_eq!(names, want, "{workload}: exactly the end-to-end metrics, with units");

    let a = tiny(workload, 7, true, "ta");
    let b = tiny(workload, 7, true, "tb");
    for name in [
        "dtree.work",
        "query.clauses",
        "storage.flushes",
        "storage.compactions",
        "engine.width_mean",
    ] {
        assert_eq!(value(&a, name).to_bits(), value(&b, name).to_bits(), "{workload}: {name}");
    }
    let names: Vec<(&str, &str)> =
        a.metrics.iter().map(|(n, (_, u))| (n.as_str(), u.as_str())).collect();
    let mut want = PER_LAYER.to_vec();
    want.sort();
    assert_eq!(names, want, "{workload}: exactly the per-layer metrics, with units");
}

#[test]
fn tpch_disk_is_deterministic() {
    check("tpch-disk");
}

#[test]
fn hard_budget_is_deterministic() {
    check("hard-budget");
}

#[test]
fn stream_cluster_is_deterministic() {
    check("stream-cluster");
}

/// `BENCHMARK.json` at the repository root lists the same workloads and
/// metrics, with the same units, as the benchmark reports.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let pairs = |section: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..text[start..].find(']').map(|e| start + e).expect("list ends")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let k = entry.find(&format!("\"{key}\"")).expect("field present");
                    entry[k..].split('"').nth(3).expect("string value").to_owned()
                };
                (field("name"), if section == "workloads" { String::new() } else { field("unit") })
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(pairs("end_to_end"), own(&END_TO_END));
    assert_eq!(pairs("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
