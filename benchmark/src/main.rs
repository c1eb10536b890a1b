//! The repo's benchmark: four workloads, end-to-end metrics with regression
//! bounds, and a per-layer time budget measured from outside the crates.
//! `README.md` in this directory is the manual; `BENCHMARK.json` at the repo
//! root is the contract.
//!
//! ```text
//! ds-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ds-benchmark --smoke            # every workload, two timed calls each
//! ds-benchmark --aa [--seed <n>]  # the full benchmark twice, compared against its own bounds
//! ds-benchmark --emit-manifest    # print BENCHMARK.json
//! ```

mod api;
mod harness;
mod host;
mod json;
mod manifest;
mod replay;
mod stats;
mod trace;
mod workloads;

use harness::{Report, RunOptions};
use json::Json;
use manifest::{Better, MetricDef};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: ds-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       ds-benchmark --smoke | --aa [--seed <n>] [--seconds <s>] | --emit-manifest";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    emit_manifest: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: u64 =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                out.seconds = Some(seconds);
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => out.smoke = true,
            "--aa" => out.aa = true,
            "--emit-manifest" => out.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &out.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!("unknown workload {name}; one of {}", workloads::NAMES.join(", ")));
        }
    }
    Ok(out)
}

/// `benchmark/out`, where result and trace files go (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report, defs: &[MetricDef]) -> Json {
    let metrics = defs.iter().map(|def| {
        let value = report
            .metrics
            .iter()
            .find(|(name, _)| *name == def.name)
            .unwrap_or_else(|| panic!("metric {} is declared but was not measured", def.name))
            .1;
        (def.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Runs one workload in this process and prints its metrics by name. Returns
/// the result line and whether the run was correct.
fn run_workload(name: &str, seed: u64, opts: RunOptions, trace: bool) -> (Json, bool) {
    let spec = workloads::generate(name, seed);
    eprintln!(
        "{name}: seed {seed}, {} mode{}",
        if trace { "traced" } else { "end-to-end" },
        if opts.smoke { ", smoke" } else { "" }
    );
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("  could not create {}: {e}", out.display());
    }
    let (report, defs): (Report, &[MetricDef]) = if trace {
        let path = out.join(format!("trace-{name}.json"));
        (harness::run_traced(&spec, opts, &path), &manifest::PER_LAYER)
    } else {
        (harness::run_untraced(&spec, opts), &manifest::END_TO_END)
    };
    for def in defs {
        if let Some((_, value)) = report.metrics.iter().find(|(n, _)| *n == def.name) {
            eprintln!("  {:<36} {:>16.6} {}", def.name, value, def.unit);
        }
    }
    eprintln!(
        "  ops_attempted {} ops_failed {} failed_share {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for why in &report.failures {
        eprintln!("  FAILED {why}");
    }
    let line = result_line(&report, defs);
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let file = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Int(opts.seconds)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("host", host::stamp(&repo_root)),
        ("result", line.clone()),
        ("details", report.details.clone()),
    ]);
    let mode = if trace { "layers" } else { "result" };
    let path = out.join(format!("{mode}-{name}.json"));
    if let Err(e) = std::fs::write(&path, file.render_pretty()) {
        eprintln!("  could not write {}: {e}", path.display());
    }
    (line, report.correct())
}

/// Runs one workload in a child process (so `peak_rss_mb` is that workload's
/// alone) and parses its result line.
fn run_child(name: &str, seed: u64, seconds: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the child printed no result")?;
    let result = Json::parse(line)?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("the child run of {name} was not correct"));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// A/A self-check: the full benchmark twice on the same build, every
/// end-to-end metric × workload compared against the benchmark's own bound in
/// both directions. Simulated metrics must match exactly (same seed).
fn run_aa(seed: u64, seconds: u64) -> bool {
    let mut all_pass = true;
    let mut table = vec![format!(
        "{:<20} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "run A", "run B", "diff", "bound"
    )];
    for name in workloads::NAMES {
        let pair =
            run_child(name, seed, seconds).and_then(|a| Ok((a, run_child(name, seed, seconds)?)));
        let (a, b) = match pair {
            Ok(pair) => pair,
            Err(why) => {
                table.push(format!("{name:<20} FAIL {why}"));
                all_pass = false;
                continue;
            }
        };
        for def in &manifest::END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(&a, def.name), metric_value(&b, def.name))
            else {
                table.push(format!("{name:<20} {:<22} FAIL missing", def.name));
                all_pass = false;
                continue;
            };
            let simulated = def.name.starts_with("sim_");
            let diff = worsening(va, vb, def.better);
            let pass = if simulated { va == vb } else { diff.abs() <= def.bound };
            all_pass &= pass;
            table.push(format!(
                "{name:<20} {:<22} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>6.1}%  {}",
                def.name,
                100.0 * diff,
                if simulated { 0.0 } else { 100.0 * def.bound },
                if pass { "PASS" } else { "FAIL" }
            ));
        }
    }
    println!("A/A self-check, seed {seed}, {seconds} s per run (bound 0.0% = must match exactly)");
    table.iter().for_each(|row| println!("{row}"));
    println!("{}", if all_pass { "A/A PASS" } else { "A/A FAIL" });
    all_pass
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(manifest::RUN_SECONDS);
    if args.emit_manifest {
        print!("{}", manifest::benchmark_json().render_pretty());
        return ExitCode::SUCCESS;
    }
    if args.aa {
        return if run_aa(args.seed, seconds) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let opts = RunOptions { seconds, smoke: args.smoke };
    let all_correct = match (&args.workload, args.smoke) {
        (Some(name), _) => {
            let (line, correct) = run_workload(name, args.seed, opts, args.trace);
            println!("{}", line.render());
            correct
        }
        (None, true) => workloads::NAMES.iter().fold(true, |ok, name| {
            let (line, correct) = run_workload(name, args.seed, opts, args.trace);
            println!("{}", line.render());
            ok && correct
        }),
        (None, false) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload service_mix --seed 12 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("service_mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (12, Some(20), true));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--smoke").unwrap().smoke);
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let report = Report {
            attempted: 40,
            failed: 0,
            failures: vec![],
            metrics: manifest::END_TO_END.iter().map(|m| (m.name, 1.25)).collect(),
            details: Json::Null,
        };
        let line = result_line(&report, &manifest::END_TO_END);
        let Json::Obj(pairs) = &line else { panic!("an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_value(&line, "latency_s_p50"), Some(1.25));
        assert_eq!(
            line.get("metrics").and_then(|m| m.get("setup_s")).and_then(|s| s.get("unit")),
            Some(&Json::str("s"))
        );
        assert!(!line.render().contains('\n'));
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert_eq!(worsening(2.0, 2.5, Better::Lower), 0.25);
        assert_eq!(worsening(2.0, 1.5, Better::Higher), 0.25);
        assert!(worsening(2.0, 1.5, Better::Lower) < 0.0);
    }
}
