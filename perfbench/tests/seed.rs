//! The workloads' inputs are a pure function of `--seed`: the byte count
//! of the closed-loop workload repeats exactly for one seed and differs
//! for another. And `BENCHMARK.json` names every metric the program reports.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

/// `bytes_per_update` of a minimal run (`--seconds 0`: the fewest
/// trials, each a fixed number of rounds or cycles).
fn counts(workload: &str, seed: u64) -> f64 {
    let report = perfbench::run(workload, seed, 0.0, false).expect("workload runs");
    assert_eq!(
        report.failed, 0,
        "{workload} seed {seed}: {:?}",
        report.failures
    );
    report
        .e2e
        .iter()
        .find(|m| m.name == "bytes_per_update")
        .expect("bytes_per_update reported")
        .value
}

#[test]
fn repair_bytes_per_update_is_seeded() {
    let first = counts("repair-30k", 7);
    assert_eq!(first, counts("repair-30k", 7), "same seed, same bytes");
    assert_ne!(first, counts("repair-30k", 8), "another seed, other bytes");
}

#[test]
fn benchmark_json_names_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    let mut expected: Vec<&str> = WORKLOADS.to_vec();
    expected.extend(END_TO_END.iter().map(|(n, _)| *n));
    expected.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(names, expected);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
