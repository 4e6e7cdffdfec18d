//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! dora-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! dora-benchmark --workload all [--seed N] [--seconds S] [--repeat N] [--smoke]
//! dora-benchmark compare <a.json> <b.json>
//! dora-benchmark spec
//! ```

mod driver;
mod json;
mod probe;
mod recorder;
mod report;
mod run;
mod schedule;
mod sut;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::Metrics;

/// Phase seconds of `--smoke`: long enough for every phase to see traffic.
const SMOKE_SECONDS: f64 = 6.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.smoke {
        parsed.seconds = SMOKE_SECONDS;
    }
    if !(1.0..=60.0).contains(&parsed.seconds) || parsed.repeat == 0 {
        return Err("--seconds must be within 1..=60 and --repeat at least 1".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        Some("compare") => compare(&args[1..]),
        _ => parse_args(&args).and_then(|args| {
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_one(&args)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dora-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The contract's mode: one workload, one run, the result as the last line.
fn run_one(args: &Args) -> Result<bool, String> {
    let def = sut::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<_> = sut::WORKLOADS.iter().map(|w| w.name).collect();
            format!("--workload must be one of {names:?} or `all`")
        })?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        return Err(format!(
            "the fixed environment needs 2 cores for its 2 load threads; this host has {cores}"
        ));
    }
    let options = run::RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let output = run::run(def, &options)?;
    println!("{}", output.result_json(args.trace).render());
    Ok(output.correct && output.tally.failed() == 0)
}

fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: compare <parent.json> <change.json>".into());
    };
    let regressions = report::compare(&load_json(a)?, &load_json(b)?);
    for regression in &regressions {
        println!("REGRESSION {regression}");
    }
    println!("{} end-to-end regressions", regressions.len());
    Ok(regressions.is_empty())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload in a fresh child process (the metrics registry is
/// process-global and RSS must be per workload) and returns its final line.
fn child_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(traced),
            output.status
        ));
    }
    Ok(result)
}

fn metrics_of(result: &Json) -> Metrics {
    let mut metrics = Metrics::default();
    for (name, entry) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        metrics.set(
            name.clone(),
            entry.get("value").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    metrics
}

/// All five workloads, untraced then traced, `--repeat` times over seeds
/// `seed, seed + 1, …`; prints and writes the medians.
fn run_all(args: &Args) -> Result<bool, String> {
    let spec = if args.smoke {
        Some(load_json("BENCHMARK.json")?)
    } else {
        None
    };
    let mut workloads = Vec::new();
    let mut peak_tps = Vec::new();
    for def in &sut::WORKLOADS {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for repeat in 0..args.repeat as u64 {
            for trace in [false, true] {
                let result = child_run(def.name, args.seed + repeat, args.seconds, trace)?;
                if let Some(spec) = &spec {
                    report::validate_result(spec, &result, trace)
                        .map_err(|e| format!("{}: {e}", def.name))?;
                }
                if trace { &mut traced } else { &mut untraced }.push(metrics_of(&result));
            }
        }
        println!("{} over {} seeds: median (q1 .. q3)", def.name, args.repeat);
        let end_to_end = report::aggregate(&report::end_to_end(), &untraced);
        let per_layer = report::aggregate(&report::per_layer(), &traced);
        peak_tps.push(
            end_to_end
                .get("peak_tps")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        workloads.push((
            def.name,
            Json::obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    // WORKLOADS lists tm1_mix first and its conventional-engine twin second.
    let ratio = peak_tps[0] / peak_tps[1];
    println!("derived: tm1_mix.peak_tps / tm1_mix_baseline.peak_tps = {ratio:.3} (not gated)");
    let file = Json::obj([
        (
            "stamp",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
                ),
                (
                    "git",
                    Json::str(tool_line("git", &["rev-parse", "--short", "HEAD"])),
                ),
                ("rustc", Json::str(tool_line("rustc", &["--version"]))),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("repeat", Json::Num(args.repeat as f64)),
            ]),
        ),
        ("dora_over_baseline_peak_tps", Json::Num(ratio)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = run::out_dir().join("result.json");
    std::fs::create_dir_all(run::out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result: {}", path.display());
    Ok(true)
}
