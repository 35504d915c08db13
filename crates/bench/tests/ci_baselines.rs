//! Every regression gate the CI workflow runs must have its baseline
//! checked in: a `--baseline <path>` naming a missing file makes the gate
//! step panic on a clean checkout, and that breakage is otherwise only
//! seen in CI.

use std::path::{Path, PathBuf};

/// The workspace root (two levels above this crate's manifest).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the root")
        .to_path_buf()
}

/// Every path given to a `--baseline` flag in `workflow`.
fn baseline_paths(workflow: &str) -> Vec<String> {
    let tokens: Vec<&str> = workflow.split_whitespace().collect();
    tokens
        .windows(2)
        .filter(|w| w[0] == "--baseline")
        .map(|w| w[1].to_string())
        .collect()
}

#[test]
fn every_ci_baseline_is_checked_in() {
    let root = workspace_root();
    let workflow = std::fs::read_to_string(root.join(".github/workflows/ci.yml"))
        .expect("the CI workflow is readable");
    let paths = baseline_paths(&workflow);
    assert!(!paths.is_empty(), "the CI workflow gates against baselines");
    let missing: Vec<&String> = paths.iter().filter(|p| !root.join(p).is_file()).collect();
    assert!(
        missing.is_empty(),
        "CI gates against baselines that are not in the tree: {missing:?}"
    );
}
