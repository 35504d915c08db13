//! The repository's benchmark: two seeded workloads, each reporting the
//! same end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! | workload | loop | layers on the path |
//! |---|---|---|
//! | `live-3node` | open, 1,000 req/s, 1 client connection | `crdt-workloads` Zipf keys, `crdt-net` client, reactor and node, `delta-store` and `crdt-sync` wire inside the nodes |
//! | `repair-30k` | closed, 1 caller, partition/heal cycles | `crdt-net` cluster, `delta-store` sync steps, Merkle and digest repair |
//!
//! Every workload measures the same two user-visible things: how long an
//! update takes to be acknowledged where it was written (`write_*`), and
//! how long until it is visible at every replica (`visible_*`). A run is a
//! series of trials; each builds a fresh fixture from the seed, runs a
//! fixed amount of work on it and checks the outcome. Samples are pooled
//! over the trials.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod live;
pub mod repair;
pub mod stats;
pub mod trace;

use stats::{median, percentile, ratio, Metric, Report};
use trace::{Analysis, Span};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["live-3node", "repair-30k"];

/// Measured trials every run makes at least, after one warm-up trial, so
/// `setup_s` is a median of several builds. A run makes more while
/// `--seconds` lasts.
pub const MIN_TRIALS: usize = 3;

/// End-to-end metrics (untraced run) and their units, reported by every
/// workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"),
    ("write_p50_us", "us"),
    ("bytes_per_update", "B"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time a traced run reports (a span's layer is its
/// name up to the first dot; `bench` is the benchmark's own loop).
pub const LAYERS: [&str; 3] = ["bench", "workloads", "net"];

/// The calls into the layers that the benchmark wraps in spans. Each one's
/// self time is reported as a share of the measured loop's time; a call a
/// workload does not make reads 0.
pub const CALLS: [&str; 7] = [
    "net.client.update",
    "net.client.get",
    "net.client.connect",
    "net.node.update",
    "net.node.get",
    "net.cluster.sync_round",
    "net.cluster.repair",
];

/// Counters read from the replicas' `crdt-obs` registries at the start
/// and end of each trial; the deltas are summed over nodes and trials.
pub const OBS_COUNTERS: [&str; 11] = [
    "store.sync.steps",
    "engine.sync.frames",
    "engine.sync.bytes",
    "engine.absorb.frames",
    "net.frames.sent",
    "net.bytes.sent",
    "net.frames.bad",
    "repair.merkle.rounds",
    "repair.merkle.frames",
    "repair.merkle.control_bytes",
    "repair.merkle.leaf_bytes",
];

/// Per-layer metrics (traced run) and their units. Every traced run
/// reports all of them. Times are non-zero on every workload; a share or
/// count of a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("self.bench.share", "ratio"),
    ("self.workloads.share", "ratio"),
    ("self.net.share", "ratio"),
    ("net.client.update.share", "ratio"),
    ("net.client.get.share", "ratio"),
    ("net.client.connect.share", "ratio"),
    ("net.node.update.share", "ratio"),
    ("net.node.get.share", "ratio"),
    ("net.cluster.sync_round.share", "ratio"),
    ("net.cluster.repair.share", "ratio"),
    ("trace.root_coverage", "ratio"),
    ("store.scan.objects_per_update", "count"),
    ("store.scan.useful_ratio", "ratio"),
    ("engine.sync.frames_per_update", "count"),
    ("engine.sync.bytes_per_update", "B"),
    ("engine.absorb.frames_per_update", "count"),
    ("net.frames_per_update", "count"),
    ("net.bytes_per_update", "B"),
    ("repair.merkle.rounds_per_repair", "count"),
    ("repair.merkle.frames_per_repair", "count"),
    ("repair.merkle.control_bytes_per_repair", "B"),
    ("repair.merkle.leaf_bytes_per_repair", "B"),
    ("gen.late_share", "ratio"),
    ("net.loopback_rtt_us", "us"),
    ("check.converged_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Current values of `OBS_COUNTERS` in a `crdt-obs` exposition
/// (`name value` lines); absent names read 0.
pub fn obs_counters(exposition: &str) -> BTreeMap<&'static str, u64> {
    let values: BTreeMap<&str, u64> = exposition
        .lines()
        .filter_map(|l| {
            let (name, v) = l.split_once(' ')?;
            Some((name, v.trim().parse().ok()?))
        })
        .collect();
    OBS_COUNTERS
        .iter()
        .map(|n| (*n, values.get(n).copied().unwrap_or(0)))
        .collect()
}

/// Counter deltas from `before` to `after`, added into `into`.
pub fn add_deltas(
    into: &mut BTreeMap<&'static str, u64>,
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) {
    for (n, a) in after {
        *into.entry(n).or_insert(0) += a.saturating_sub(before.get(n).copied().unwrap_or(0));
    }
}

/// What the trials measured, in the same terms on every workload, pooled
/// over trials.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per marked update, or per repair that makes a batch of updates
    /// visible: ms until it is visible at every replica.
    pub visible_ms: Vec<f64>,
    /// Per update: µs until the replica it was written to acknowledged it.
    pub write_us: Vec<f64>,
    /// Updates made visible at every replica.
    pub updates: u64,
    /// Bytes the synchronization layer shipped to make them visible
    /// (`engine.sync.bytes`, or a repair's payload and metadata).
    pub bytes: u64,
    /// `bytes` ÷ `updates` of each trial.
    pub bytes_per_update: Vec<f64>,
    /// Operations attempted (updates and reads).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// `OBS_COUNTERS` deltas, plus the benchmark's own counts.
    pub counts: BTreeMap<&'static str, u64>,
    /// Spans of the traced trials, one list per recording thread.
    pub spans: Vec<Vec<Span>>,
}

impl Samples {
    /// Record a check; a failed one counts in `failed`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    fn per_update(&self, name: &str) -> f64 {
        ratio(self.get(name), self.updates as f64)
    }
}

/// A workload's fixture: built per trial, then measured and checked.
pub trait Bench: Sized {
    /// Inputs shared by every trial of a run, made once from the seed.
    type Input;
    fn input(seed: u64) -> Result<Self::Input, String>;
    /// Build a fresh fixture.
    fn build(input: &Self::Input) -> Result<Self, String>;
    /// Run the trial's fixed amount of work, recording spans if `trace`.
    fn measure(&mut self, input: &Self::Input, trace: bool, out: &mut Samples);
    /// Check the outputs after a trial; failures count in `out`.
    fn check(&mut self, out: &mut Samples);
}

/// Median round trip of a 64-byte blocking echo over loopback TCP: the
/// floor that network round trips are compared against.
fn loopback_rtt_us() -> std::io::Result<f64> {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    const ROUNDS: usize = 200;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut buf = [0u8; 64];
            for _ in 0..ROUNDS {
                conn.read_exact(&mut buf)?;
                conn.write_all(&buf)?;
            }
            Ok(())
        });
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut buf = [7u8; 64];
        let mut rtts = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            conn.write_all(&buf)?;
            conn.read_exact(&mut buf)?;
            rtts.push(stats::us(t.elapsed()));
        }
        echo.join().expect("echo thread panicked")?;
        Ok(median(&rtts))
    })
}

/// The end-to-end metrics of pooled samples (all but `setup_s` and
/// `peak_rss_mb`).
fn e2e(s: &Samples) -> Vec<Metric> {
    vec![
        Metric::new("visible_p50_ms", percentile(&s.visible_ms, 50.0), "ms"),
        Metric::new("visible_p90_ms", percentile(&s.visible_ms, 90.0), "ms"),
        Metric::new("write_p50_us", percentile(&s.write_us, 50.0), "us"),
        Metric::new("bytes_per_update", median(&s.bytes_per_update), "B"),
    ]
}

/// The per-layer metrics of pooled traced samples.
fn per_layer(s: &Samples, a: &Analysis, report: &mut Report) {
    let root = a.root_ns as f64;
    let self_ns = a.layer_self_ns();
    report.notes.push("layer self time (traced run):".to_string());
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0) as f64;
        report.layer(&format!("self.{layer}.share"), ratio(ns, root), "ratio");
        report.notes.push(format!(
            "  {layer:<10} {:>10.1} ms {:>6.1}%",
            ns / 1e6,
            100.0 * ratio(ns, root)
        ));
    }
    for call in CALLS {
        let share = ratio(a.self_ns(call) as f64, root);
        report.layer(&format!("{call}.share"), share, "ratio");
    }
    report.layer(
        "trace.root_coverage",
        ratio(a.root_child_ns as f64, root),
        "ratio",
    );
    let scanned = s.get("store.scan.objects");
    report.layer(
        "store.scan.objects_per_update",
        s.per_update("store.scan.objects"),
        "count",
    );
    report.layer(
        "store.scan.useful_ratio",
        ratio(s.get("engine.sync.frames"), scanned),
        "ratio",
    );
    for (name, counter, unit) in [
        ("engine.sync.frames_per_update", "engine.sync.frames", "count"),
        ("engine.sync.bytes_per_update", "engine.sync.bytes", "B"),
        ("engine.absorb.frames_per_update", "engine.absorb.frames", "count"),
        ("net.frames_per_update", "net.frames.sent", "count"),
        ("net.bytes_per_update", "net.bytes.sent", "B"),
    ] {
        report.layer(name, s.per_update(counter), unit);
    }
    let repairs = s.get("repairs");
    for (name, counter, unit) in [
        ("repair.merkle.rounds_per_repair", "repair.merkle.rounds", "count"),
        ("repair.merkle.frames_per_repair", "repair.merkle.frames", "count"),
        (
            "repair.merkle.control_bytes_per_repair",
            "repair.merkle.control_bytes",
            "B",
        ),
        (
            "repair.merkle.leaf_bytes_per_repair",
            "repair.merkle.leaf_bytes",
            "B",
        ),
    ] {
        report.layer(name, ratio(s.get(counter), repairs), unit);
    }
    report.layer(
        "gen.late_share",
        ratio(s.get("gen.late"), s.get("gen.requests")),
        "ratio",
    );
}

/// One trial: build a fixture (timed), measure it, check it (timed).
/// Returns the build's seconds and the check's milliseconds.
fn trial<B: Bench>(
    input: &B::Input,
    trace: bool,
    out: &mut Samples,
) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let mut fx = B::build(input)?;
    let build_s = t.elapsed().as_secs_f64();
    let (bytes, updates) = (out.bytes, out.updates);
    fx.measure(input, trace, out);
    out.bytes_per_update.push(ratio(
        (out.bytes - bytes) as f64,
        (out.updates - updates) as f64,
    ));
    let t = Instant::now();
    fx.check(out);
    Ok((build_s, stats::ms(t.elapsed())))
}

/// Run one workload for about `seconds`: untraced trials give the
/// end-to-end metrics. With `trace`, traced trials alternate with the
/// untraced ones; they give the per-layer metrics, each layer's self time
/// and the spans, and the traced against the untraced metrics give the
/// tracing overhead.
fn run_bench<B: Bench>(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let start = Instant::now();
    let t = Instant::now();
    let input = B::input(seed)?;
    let input_s = t.elapsed().as_secs_f64();
    // A warm-up trial: its failures count, its samples do not, so lazy
    // set-up in the process (allocator arenas, first sockets) stays out
    // of the samples.
    let mut warm = Samples::default();
    let (warm_build_s, _) = trial::<B>(&input, false, &mut warm)?;
    // Later trials reuse (and fragment) the freed heap; the first one's
    // peak is the cost of one fixture and its work.
    let peak_rss_mb = stats::peak_rss_mb();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut builds = vec![warm_build_s];
    let mut checks = Vec::new();
    let mut trials = 0;
    while trials < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds {
        let (build_s, check_ms) = trial::<B>(&input, false, &mut plain)?;
        builds.push(build_s);
        checks.push(check_ms);
        if trace {
            trial::<B>(&input, true, &mut traced)?;
        }
        trials += 1;
    }
    let mut r = Report {
        trials,
        ..Report::default()
    };
    r.e2e.push(Metric::new("setup_s", input_s + median(&builds), "s"));
    r.e2e.extend(e2e(&plain));
    r.e2e.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
    r.samples = plain.visible_ms.len();
    for s in [&warm, &plain, &traced] {
        r.attempted += s.attempted;
        r.failed += s.failed;
        r.failures.extend(s.failures.iter().cloned());
    }
    if !trace {
        return Ok(r);
    }
    let spans = trace::merge(std::mem::take(&mut traced.spans));
    let a = Analysis::of(&spans);
    per_layer(&traced, &a, &mut r);
    let rtt_us = loopback_rtt_us().map_err(|e| format!("loopback echo: {e}"))?;
    r.layer("net.loopback_rtt_us", rtt_us, "us");
    r.layer("check.converged_ms", median(&checks), "ms");
    r.notes
        .push("tracing overhead (traced - untraced):".to_string());
    for (m, tm) in e2e(&plain).iter().zip(e2e(&traced)) {
        let pct = 100.0 * ratio(tm.value - m.value, m.value);
        r.notes.push(format!(
            "  {:<18} untraced {:>12.3} {:<4} traced {:>12.3}  {:+.1}%",
            m.name, m.value, m.unit, tm.value, pct
        ));
        if m.name == "visible_p50_ms" {
            r.layer("trace.overhead_pct", pct, "%");
        }
    }
    r.spans = spans;
    Ok(r)
}

/// Run the named workload (see [`WORKLOADS`]).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match workload {
        "live-3node" => run_bench::<live::Fixture>(seed, seconds, trace),
        "repair-30k" => run_bench::<repair::Fixture>(seed, seconds, trace),
        other => Err(format!("unknown workload `{other}`")),
    }
}
