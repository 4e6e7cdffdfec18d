//! `repro` — regenerate the figures of the paper's evaluation.
//!
//! ```text
//! cargo run -p dora-bench --release --bin repro -- all --quick
//! cargo run -p dora-bench --release --bin repro -- fig1 fig6 --full
//! cargo run -p dora-bench --release --bin repro -- skew --json=BENCH_skew.json
//! cargo run -p dora-bench --release --bin repro -- dispatch --json
//! cargo run -p dora-bench --release --bin repro -- commit --json
//! cargo run -p dora-bench --release --bin repro -- recover --json
//! cargo run -p dora-bench --release --bin repro -- saturation --json
//! cargo run -p dora-bench --release --bin repro -- chaos --json
//! cargo run -p dora-bench --release --bin repro -- htap --json
//! ```
//!
//! Every figure of the evaluation section (and the appendix) has a
//! subcommand; `fig9` is validated by the integration test
//! `payment_twelve_steps` instead of a measurement. Seven experiments are
//! this reproduction's own: `skew` (adaptive repartitioning under a zipfian
//! workload), `dispatch` (the executor message path, idle vs busy
//! executors), `commit` (group commit with and without ELR across log-device
//! latencies), `recover` (the one recovery path, with and without a
//! checkpoint), `saturation` (offered load swept
//! past saturation through the `dora-server` front-end, admission control
//! on/off), `chaos` (goodput under a seeded deterministic fault
//! schedule — log-device errors, latency spikes, flusher stalls, executor
//! panics — with the self-healing paths off vs on) and `htap` (live
//! analytical snapshot scans against full-load OLTP: interference,
//! scan throughput, snapshot staleness and the scans' lock-freedom).
//! Each optionally emits a
//! machine-readable summary for CI's bench-smoke artifacts via
//! `--json[=path]` (defaults `BENCH_skew.json` / `BENCH_dispatch.json` /
//! `BENCH_commit.json` / `BENCH_recover.json` / `BENCH_saturation.json` /
//! `BENCH_chaos.json` / `BENCH_htap.json`; an
//! explicit path applies
//! when a single JSON-producing experiment is requested, otherwise each
//! falls back to its default). Reports are printed to stdout; absolute numbers depend on the
//! host, but the *shapes* the paper reports (who wins, where the baseline
//! collapses, which components dominate the breakdowns) should reproduce.
//! See `EXPERIMENTS.md`.

use dora_bench::{experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::quick() };
    let json_requested = args
        .iter()
        .any(|a| a == "--json" || a.starts_with("--json="));
    let json_explicit: Option<String> = args
        .iter()
        .find_map(|a| a.strip_prefix("--json=").map(str::to_string));
    let requested: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let run_all = requested.is_empty() || requested.iter().any(|a| a.as_str() == "all");

    // The JSON-producing experiments each have a default artifact path; an
    // explicit --json=path only applies when exactly one of them runs, so
    // two experiments never clobber one file.
    let json_producers_requested = if run_all {
        7
    } else {
        [
            "skew",
            "dispatch",
            "commit",
            "recover",
            "saturation",
            "chaos",
            "htap",
        ]
        .iter()
        .filter(|name| requested.iter().any(|a| a.as_str() == **name))
        .count()
    };
    let json_path_for = |default: &str| -> Option<String> {
        if !json_requested {
            return None;
        }
        match (&json_explicit, json_producers_requested) {
            (Some(path), 1) => Some(path.clone()),
            _ => Some(default.to_string()),
        }
    };
    if json_explicit.is_some() && json_producers_requested > 1 {
        eprintln!(
            "note: --json=<path> with several JSON experiments — each writes its default file"
        );
    }

    let write_json = |path: &str, contents: String| {
        std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    };
    let run_skew = |scale: &Scale| {
        let (report, summary) = experiments::skew_with_summary(scale);
        println!("{report}");
        if let Some(path) = json_path_for("BENCH_skew.json") {
            write_json(&path, summary.to_json());
        }
    };
    let run_dispatch = |scale: &Scale| {
        let (report, summary) = experiments::dispatch_with_summary(scale);
        println!("{report}");
        if let Some(path) = json_path_for("BENCH_dispatch.json") {
            write_json(&path, summary.to_json());
        }
    };
    let run_commit = |scale: &Scale| {
        let (report, summary) = experiments::commit_with_summary(scale);
        println!("{report}");
        if let Some(path) = json_path_for("BENCH_commit.json") {
            write_json(&path, summary.to_json());
        }
    };
    let run_recover = |scale: &Scale| {
        let (report, summary) = experiments::recover_with_summary(scale);
        println!("{report}");
        if let Some(path) = json_path_for("BENCH_recover.json") {
            write_json(&path, summary.to_json());
        }
    };
    let run_saturation = |scale: &Scale| {
        let (report, summary) = experiments::saturation_with_summary(scale);
        println!("{report}");
        if let Some(path) = json_path_for("BENCH_saturation.json") {
            write_json(&path, summary.to_json());
        }
    };
    let run_chaos = |scale: &Scale| {
        let (report, summary) = experiments::chaos_with_summary(scale);
        println!("{report}");
        if let Some(path) = json_path_for("BENCH_chaos.json") {
            write_json(&path, summary.to_json());
        }
    };
    let run_htap = |scale: &Scale| {
        let (report, summary) = experiments::htap_with_summary(scale);
        println!("{report}");
        if let Some(path) = json_path_for("BENCH_htap.json") {
            write_json(&path, summary.to_json());
        }
    };

    if run_all {
        println!(
            "running every experiment at {} scale\n",
            if full { "full" } else { "quick" }
        );
        for report in experiments::figures(&scale) {
            println!("{report}");
        }
        // One measurement per experiment serves both the printed report and
        // the (optional) JSON artifact.
        run_skew(&scale);
        run_dispatch(&scale);
        run_commit(&scale);
        run_recover(&scale);
        run_saturation(&scale);
        run_chaos(&scale);
        run_htap(&scale);
        return;
    }

    let mut unknown = Vec::new();
    let mut ran_json_producer = false;
    for name in requested {
        match name.as_str() {
            "skew" => {
                run_skew(&scale);
                ran_json_producer = true;
            }
            "dispatch" => {
                run_dispatch(&scale);
                ran_json_producer = true;
            }
            "commit" => {
                run_commit(&scale);
                ran_json_producer = true;
            }
            "recover" => {
                run_recover(&scale);
                ran_json_producer = true;
            }
            "saturation" => {
                run_saturation(&scale);
                ran_json_producer = true;
            }
            "chaos" => {
                run_chaos(&scale);
                ran_json_producer = true;
            }
            "htap" => {
                run_htap(&scale);
                ran_json_producer = true;
            }
            other => match experiments::by_name(other, &scale) {
                Some(report) => println!("{report}"),
                None => unknown.push(other.to_string()),
            },
        }
    }
    if json_requested && !ran_json_producer {
        eprintln!(
            "warning: --json ignored — none of skew/dispatch/commit/recover/saturation/chaos/htap was requested"
        );
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {} (valid: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig10 fig11 skew dispatch commit recover saturation chaos htap all)",
            unknown.join(", ")
        );
        std::process::exit(2);
    }
}
