//! The `retwis_sharded` experiment family: the paper's Retwis granularity
//! (§V-C — per-object δ-buffers over up to 30 K independent objects) on
//! the unified [`ShardedEngineRunner`]: any protocol, thread-parallel,
//! with per-destination envelope batching.
//!
//! For every `(protocol, zipf, threads)` point the suite replays the same
//! deterministic [`RetwisTrace`] through three family runners (follower
//! sets / walls / timelines — objects never interact, so this equals one
//! deployment hosting all of them) and records:
//!
//! * **bytes/round** — the Fig. 11 transmission quantity, per protocol;
//! * **batch amortization** — per-object envelopes per wire frame: the
//!   frame count is O(links) per round, *independent of object count*,
//!   which is what makes the granularity deployable;
//! * **speedup vs sequential** — critical-path time at `threads = 1`
//!   over critical-path time at `threads = t` (comparable by
//!   construction: both are per-phase busiest-worker sums, never a
//!   wall-clock quantity against a cross-thread total).
//!
//! Deterministic metrics (bytes, elements, frames, envelopes) are gated
//! against `ci/bench-baseline/BENCH_retwis_sharded.json`; timing fields
//! ride along in the JSON as artifacts and are never gated.

use crdt_lattice::SizeModel;
use crdt_sim::{RunMetrics, ShardedEngineRunner, Topology};
use crdt_sync::ProtocolKind;
use crdt_types::GSet;
use crdt_workloads::{RetwisConfig, RetwisTrace, Timeline, UserId, Wall};

use crate::json::Json;
use crate::{fmt_bytes, fmt_ratio, print_table, Scale};

/// One `(protocol, zipf, threads)` measurement.
#[derive(Debug, Clone)]
pub struct ShardedRow {
    /// Protocol driven through the trace.
    pub protocol: ProtocolKind,
    /// Zipf coefficient of the workload.
    pub zipf: f64,
    /// Worker threads.
    pub threads: usize,
    /// Distinct objects hosted per node at the end of the run (all three
    /// families).
    pub objects: usize,
    /// Directed links in the topology (the frame-count bound per sync
    /// wave per family).
    pub links: usize,
    /// Workload rounds replayed.
    pub rounds: usize,
    /// Rounds in the metric series: workload rounds plus the idle
    /// convergence tail. The per-round averages divide by *this*, so the
    /// row's fields stay mutually consistent
    /// (`bytes_per_round_per_node = total_bytes / metric_rounds / nodes`).
    pub metric_rounds: usize,
    /// Total transmission (payload + metadata model bytes).
    pub total_bytes: u64,
    /// Total transmitted lattice elements.
    pub total_elements: u64,
    /// Batched wire frames shipped.
    pub frames: u64,
    /// Per-object protocol envelopes (pre-batching).
    pub envelopes: u64,
    /// `envelopes / frames`.
    pub amortization: f64,
    /// Transmission per node per metric round (workload + convergence
    /// tail — see [`ShardedRow::metric_rounds`]).
    pub bytes_per_round_per_node: u64,
    /// Summed protocol work (nanoseconds; wall-clock, artifact only).
    pub cpu_nanos: u64,
    /// Critical-path time (nanoseconds; wall-clock, artifact only).
    pub critical_path_nanos: u64,
    /// Driver overhead drawing/routing ops (nanoseconds, artifact only).
    pub workload_nanos: u64,
    /// `critical_path(baseline) / critical_path(this row)` for the same
    /// (protocol, zipf), where the baseline is the `threads == 1` row
    /// when measured (regardless of `--threads` order), else the lowest
    /// thread count; 1.0 for the baseline row itself.
    pub speedup_vs_seq: f64,
    /// Did every family converge?
    pub converged: bool,
}

/// `ops[round][node]` keyed operations for one object family `C`.
type FamilyTrace<C> = Vec<Vec<Vec<(UserId, <C as crdt_types::Crdt>::Op)>>>;

/// The trace regrouped by object family: `ops[round][node]` per family —
/// built once per trace and replayed by every `(protocol, threads)`
/// point (and by the Fig. 11/12 sweep).
pub(crate) struct FamilyOps {
    followers: FamilyTrace<GSet<UserId>>,
    walls: FamilyTrace<Wall>,
    timelines: FamilyTrace<Timeline>,
}

impl FamilyOps {
    pub(crate) fn split(trace: &RetwisTrace) -> Self {
        FamilyOps {
            followers: trace
                .rounds
                .iter()
                .map(|round| round.iter().map(|n| n.followers.clone()).collect())
                .collect(),
            walls: trace
                .rounds
                .iter()
                .map(|round| round.iter().map(|n| n.walls.clone()).collect())
                .collect(),
            timelines: trace
                .rounds
                .iter()
                .map(|round| round.iter().map(|n| n.timelines.clone()).collect())
                .collect(),
        }
    }
}

/// Replay the regrouped trace under `kind` with `threads` workers;
/// returns the merged family metrics, objects per node, and convergence.
pub(crate) fn run_point(
    kind: ProtocolKind,
    ops: &FamilyOps,
    topo: &Topology,
    threads: usize,
) -> (RunMetrics, usize, bool) {
    const MODEL: SizeModel = SizeModel::compact();
    let slack = topo.diameter() * 4 + 16;
    let mut followers: ShardedEngineRunner<UserId, GSet<UserId>> =
        ShardedEngineRunner::new(kind, topo.clone(), MODEL, threads);
    let mut walls: ShardedEngineRunner<UserId, Wall> =
        ShardedEngineRunner::new(kind, topo.clone(), MODEL, threads);
    let mut timelines: ShardedEngineRunner<UserId, Timeline> =
        ShardedEngineRunner::new(kind, topo.clone(), MODEL, threads);

    followers.run_rounds(&ops.followers);
    walls.run_rounds(&ops.walls);
    timelines.run_rounds(&ops.timelines);
    let converged = followers.run_to_convergence(slack).is_some()
        & walls.run_to_convergence(slack).is_some()
        & timelines.run_to_convergence(slack).is_some();
    let node0 = crdt_lattice::ReplicaId(0);
    let objects =
        followers.objects_at(node0) + walls.objects_at(node0) + timelines.objects_at(node0);
    let metrics = followers
        .into_metrics()
        .merged(&walls.into_metrics())
        .merged(&timelines.into_metrics());
    (metrics, objects, converged)
}

/// Run the sweep: `kinds` × `zipfs` × `threads_list` over one
/// deterministic trace per zipf point. Scale: quick = 10 nodes / 300
/// users / 8 rounds; full = 50 nodes / 10 000 users (30 K objects) / 30
/// rounds.
pub fn run_retwis_sharded(
    scale: Scale,
    kinds: &[ProtocolKind],
    zipfs: &[f64],
    threads_list: &[usize],
) -> Vec<ShardedRow> {
    let topo = Topology::partial_mesh(scale.pick(50, 10), 4);
    let rounds = scale.pick(30, 8);
    let cfg_base = RetwisConfig {
        n_users: scale.pick(10_000, 300),
        ops_per_node_per_round: scale.pick(4, 2),
        max_fanout: scale.pick(50, 10),
        seed: 42,
        zipf: 0.0, // overwritten per point
    };
    let links = 2 * topo.edge_count();

    let mut rows = Vec::new();
    for &zipf in zipfs {
        let trace = RetwisTrace::generate(RetwisConfig { zipf, ..cfg_base }, topo.len(), rounds);
        let ops = FamilyOps::split(&trace);
        for &kind in kinds {
            let mut group = Vec::with_capacity(threads_list.len());
            for &threads in threads_list {
                let (metrics, objects, converged) = run_point(kind, &ops, &topo, threads);
                let critical = metrics.total_critical_path_nanos().max(1);
                group.push(ShardedRow {
                    protocol: kind,
                    zipf,
                    threads,
                    objects,
                    links,
                    rounds,
                    metric_rounds: metrics.rounds.len(),
                    total_bytes: metrics.total_bytes(),
                    total_elements: metrics.total_elements(),
                    frames: metrics.total_messages(),
                    envelopes: metrics.total_envelopes(),
                    amortization: metrics.batch_amortization(),
                    bytes_per_round_per_node: metrics.total_bytes()
                        / (metrics.rounds.len().max(1) as u64)
                        / (topo.len() as u64),
                    cpu_nanos: metrics.total_cpu_nanos(),
                    critical_path_nanos: critical,
                    workload_nanos: metrics.total_workload_nanos(),
                    speedup_vs_seq: 1.0, // filled in below, once the group is complete
                    converged,
                });
            }
            // The sequential baseline is the `threads == 1` run when
            // present (whatever its position in `--threads` order),
            // else the lowest thread count measured.
            let baseline = group
                .iter()
                .find(|r| r.threads == 1)
                .or_else(|| group.iter().min_by_key(|r| r.threads))
                .map(|r| r.critical_path_nanos)
                .unwrap_or(1);
            for row in &mut group {
                row.speedup_vs_seq = baseline as f64 / row.critical_path_nanos as f64;
            }
            rows.extend(group);
        }
    }
    rows
}

/// Print the sweep as one table per zipf point.
pub fn print_report(rows: &[ShardedRow]) {
    let mut zipfs: Vec<f64> = rows.iter().map(|r| r.zipf).collect();
    zipfs.dedup();
    for &zipf in &zipfs {
        let table: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.zipf == zipf)
            .map(|r| {
                vec![
                    r.protocol.name().to_string(),
                    r.threads.to_string(),
                    r.objects.to_string(),
                    fmt_bytes(r.bytes_per_round_per_node),
                    r.frames.to_string(),
                    fmt_ratio(r.amortization),
                    fmt_ratio(r.speedup_vs_seq),
                    if r.converged { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("retwis_sharded (zipf {zipf:.2}): per-object engines, batched frames"),
            &[
                "protocol",
                "threads",
                "objects/node",
                "bytes/round/node",
                "frames",
                "amortization",
                "speedup vs seq",
                "converged",
            ],
            &table,
        );
    }
}

/// Render rows as the `BENCH_retwis_sharded.json` document.
pub fn report_to_json(rows: &[ShardedRow], quick: bool) -> Json {
    let results = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("protocol".into(), Json::str(r.protocol.id())),
                ("protocol_name".into(), Json::str(r.protocol.name())),
                ("zipf".into(), Json::Num(r.zipf)),
                ("threads".into(), Json::num(r.threads as u64)),
                ("objects".into(), Json::num(r.objects as u64)),
                ("links".into(), Json::num(r.links as u64)),
                ("rounds".into(), Json::num(r.rounds as u64)),
                ("metric_rounds".into(), Json::num(r.metric_rounds as u64)),
                ("total_bytes".into(), Json::num(r.total_bytes)),
                ("total_elements".into(), Json::num(r.total_elements)),
                ("frames".into(), Json::num(r.frames)),
                ("envelopes".into(), Json::num(r.envelopes)),
                ("amortization".into(), Json::Num(r.amortization)),
                (
                    "bytes_per_round_per_node".into(),
                    Json::num(r.bytes_per_round_per_node),
                ),
                ("cpu_nanos".into(), Json::num(r.cpu_nanos)),
                (
                    "critical_path_nanos".into(),
                    Json::num(r.critical_path_nanos),
                ),
                ("workload_nanos".into(), Json::num(r.workload_nanos)),
                ("speedup_vs_seq".into(), Json::Num(r.speedup_vs_seq)),
                ("converged".into(), Json::Bool(r.converged)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::str("bench-retwis-sharded/v1")),
        ("quick".into(), Json::Bool(quick)),
        ("results".into(), Json::Arr(results)),
    ])
}

/// Write the JSON report to `path`.
pub fn write_report(path: &str, rows: &[ShardedRow], quick: bool) -> std::io::Result<()> {
    std::fs::write(path, report_to_json(rows, quick).pretty())
}

/// Gated metrics with their absolute limit floors (see
/// [`crate::gate_limit`]). Only deterministic quantities — the timing
/// fields are wall-clock and never gated.
const GATED: [(&str, f64); 4] = [
    ("total_bytes", 256.0),
    ("total_elements", 16.0),
    ("frames", 4.0),
    ("envelopes", 16.0),
];

/// Compare a current report against a checked-in baseline: every
/// baseline `(protocol, zipf, threads)` row must exist, have converged,
/// and keep each [`GATED`] metric within `(1 + tolerance)×` of the
/// baseline, floored by the metric's absolute epsilon (zero and tiny
/// baselines — see [`crate::gate_limit`]). Improvements always pass.
/// Returns violations.
pub fn check_regression(current: &Json, baseline: &Json, tolerance: f64) -> Vec<String> {
    crate::check_regression_gate(
        current,
        baseline,
        tolerance,
        &["protocol", "zipf", "threads"],
        &GATED,
    )
}

/// Parse repeatable `--threads <n>` flags; `default` when none given.
pub fn threads_from_args(default: &[usize]) -> Vec<usize> {
    numeric_flags("--threads", default, |v| v.parse::<usize>().ok())
}

/// Parse repeatable `--zipf <s>` flags; `default` when none given.
pub fn zipfs_from_args(default: &[f64]) -> Vec<f64> {
    numeric_flags("--zipf", default, |v| v.parse::<f64>().ok())
}

fn numeric_flags<T: Copy>(name: &str, default: &[T], parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let args: Vec<String> = std::env::args().collect();
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            let parsed = args.get(i + 1).and_then(|v| parse(v));
            let Some(v) = parsed else {
                eprintln!("error: {name} needs a numeric value");
                std::process::exit(2);
            };
            values.push(v);
            i += 2;
        } else {
            i += 1;
        }
    }
    if values.is_empty() {
        values.extend_from_slice(default);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rows() -> Vec<ShardedRow> {
        run_retwis_sharded(
            Scale::Quick,
            &[ProtocolKind::Classic, ProtocolKind::BpRr],
            &[1.0],
            &[1, 4],
        )
    }

    #[test]
    fn frames_are_bounded_by_links_not_objects() {
        let rows = tiny_rows();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.converged, "{:?}", r.protocol);
            assert!(r.objects > 50, "sharded granularity: many objects");
            // Three family runners, ≤ 1 frame per directed link per
            // family per sync wave; δ-kinds have exactly one wave per
            // round, and the row reports the actual metric rounds
            // (workload + convergence tail) — so the whole run stays at
            // links-scale, nowhere near objects-scale.
            assert!(
                r.frames <= 3 * r.links as u64 * r.metric_rounds as u64,
                "{}: {} frames exceeds the O(links) bound",
                r.protocol,
                r.frames
            );
            assert!(
                r.amortization > 1.5,
                "{}: batching must amortize ({} envelopes / {} frames)",
                r.protocol,
                r.envelopes,
                r.frames
            );
        }
    }

    #[test]
    fn accounting_is_thread_invariant_and_classic_loses() {
        let rows = tiny_rows();
        let find = |kind: ProtocolKind, threads: usize| {
            rows.iter()
                .find(|r| r.protocol == kind && r.threads == threads)
                .unwrap()
        };
        for kind in [ProtocolKind::Classic, ProtocolKind::BpRr] {
            let (t1, t4) = (find(kind, 1), find(kind, 4));
            assert_eq!(t1.total_bytes, t4.total_bytes, "{kind}");
            assert_eq!(t1.frames, t4.frames, "{kind}");
            assert_eq!(t1.envelopes, t4.envelopes, "{kind}");
            assert!((t1.speedup_vs_seq - 1.0).abs() < 1e-12, "{kind}");
        }
        // Zipf 1.0 contention: classic must transmit more than BP+RR.
        assert!(
            find(ProtocolKind::Classic, 1).total_bytes > find(ProtocolKind::BpRr, 1).total_bytes,
            "the Retwis separation must survive the unified runner"
        );
    }

    #[test]
    fn report_roundtrips_and_gates() {
        let rows = tiny_rows();
        let json = report_to_json(&rows, true);
        let back = Json::parse(&json.pretty()).unwrap();
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some("bench-retwis-sharded/v1")
        );
        assert!(check_regression(&back, &json, 0.25).is_empty());

        // A doubled-bytes current run fails; a missing row fails.
        let mut worse = rows.clone();
        worse[0].total_bytes *= 2;
        worse.remove(1);
        let current = report_to_json(&worse, true);
        let violations = check_regression(&current, &json, 0.25);
        assert!(violations.iter().any(|v| v.contains("total_bytes")));
        assert!(violations.iter().any(|v| v.contains("missing")));
    }
}
