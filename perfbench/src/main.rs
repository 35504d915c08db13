//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the metrics by name and unit, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 if any operation or correctness check failed,
//! 2 on bad arguments. Results and spans are also written under `out/`
//! next to this package's manifest.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::stats::Metric;
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <live-3node|repair-30k|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 24.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git revision (`unknown` outside a git checkout), core count and
/// compiler, recorded with every result.
fn environment() -> [(&'static str, String); 3] {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    [
        ("git_rev", command_line("git", &["rev-parse", "HEAD"])),
        ("nproc", nproc.to_string()),
        ("rustc", command_line("rustc", &["--version"])),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `{}` prints the shortest text that reads back as the same f64.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(args: &Args) -> ExitCode {
    let env = environment();
    let report = match perfbench::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let env_line: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# {} seed={} seconds={} trace={} trials={} visible_samples={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.trials,
        report.samples,
        env_line.join(" ")
    );
    println!("end-to-end (untraced):");
    for m in &report.e2e {
        println!("  {:<18} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("  {:<18} {:>14.4} ratio", "error_rate", report.error_rate());
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    let (wanted, got): (&[(&str, &str)], _) = if args.trace {
        println!("per-layer (traced):");
        for m in &report.layer {
            println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        (&PER_LAYER, &report.layer)
    } else {
        (&END_TO_END, &report.e2e)
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        match got.iter().find(|m| m.name == *name && m.unit == *unit) {
            Some(m) => metrics.push(m.clone()),
            None => {
                eprintln!("perfbench: {} did not report {name} ({unit})", args.workload);
                return ExitCode::from(1);
            }
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    let correct = report.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(&metrics)
    );
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    );
    for (k, v) in &env {
        let _ = write!(record, ", \"{k}\": {}", json_str(v));
    }
    let _ = write!(record, ", \"result\": {result}}}");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), record + "\n"))
        .and_then(|_| {
            if args.trace {
                // One spans file per workload, overwritten by its next traced run.
                let spans = dir.join(format!("{}-spans.tsv", args.workload));
                perfbench::trace::write_tsv(&spans, &report.spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// is that workload's), then one summary line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("perfbench: could not start the {w} run");
            return ExitCode::from(1);
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let field = |key: &str| -> Option<u64> {
            let rest = &last[last.find(&format!("\"{key}\": "))? + key.len() + 4..];
            rest[..rest.find(',')?].parse().ok()
        };
        match (out.status.success(), field("attempted"), field("failed")) {
            (ok, Some(a), Some(f)) => {
                correct &= ok && last.starts_with("{\"correct\": true");
                attempted += a;
                failed += f;
            }
            _ => {
                correct = false;
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
