//! `repro` — regenerate the figures of the paper's evaluation.
//!
//! ```text
//! cargo run -p dora-bench --release --bin repro -- all --quick
//! cargo run -p dora-bench --release --bin repro -- fig1 fig6 --full
//! cargo run -p dora-bench --release --bin repro -- skew --json=BENCH_skew.json
//! cargo run -p dora-bench --release --bin repro -- commit recover --json
//! cargo run -p dora-bench --release --bin repro -- saturation --json
//! cargo run -p dora-bench --release --bin repro -- chaos --json
//! ```
//!
//! Every figure of the evaluation section (and the appendix) has a
//! subcommand, listed in [`FIGURES`]; `fig9` is validated by the integration
//! test `payment_twelve_steps` instead of a measurement. Five experiments are
//! this reproduction's own, listed in [`SUMMARIZED`]: `skew` (adaptive
//! repartitioning under a zipfian workload), `commit` (group commit with and
//! without ELR across log-device latencies), `recover` (the one recovery
//! path, with and without a checkpoint), `saturation` (offered load swept
//! past saturation through the `dora-server` front-end, admission control
//! on/off) and `chaos` (goodput under a seeded deterministic fault schedule —
//! log-device errors, latency spikes, flusher stalls, executor panics — with
//! the self-healing paths off vs on). Each of them can also write a
//! machine-readable summary with `--json[=path]`: to `BENCH_<name>.json` by
//! default, or to `path` when exactly one of them runs. Reports are printed
//! to stdout; absolute numbers depend on the host, but the *shapes* the paper
//! reports (who wins, where the baseline collapses, which components
//! dominate the breakdowns) should reproduce. See `EXPERIMENTS.md`.

use dora_bench::experiments::{self, FIGURES, SUMMARIZED};
use dora_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::quick() };
    let json_requested = args
        .iter()
        .any(|a| a == "--json" || a.starts_with("--json="));
    let json_explicit = args.iter().find_map(|a| a.strip_prefix("--json="));
    let requested: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let run_all = requested.is_empty() || requested.contains(&"all");

    let summarized: Vec<&str> = SUMMARIZED.iter().map(|(name, _)| *name).collect();
    let known: Vec<&str> = FIGURES
        .iter()
        .map(|(name, _)| *name)
        .chain(summarized.iter().copied())
        .collect();
    let unknown: Vec<&str> = requested
        .iter()
        .copied()
        .filter(|name| *name != "all" && !known.contains(name))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {} (valid: {} all)",
            unknown.join(", "),
            known.join(" ")
        );
        std::process::exit(2);
    }
    let to_run: Vec<&str> = if run_all { known } else { requested };

    // An explicit --json=path only applies when exactly one summarized
    // experiment runs, so two experiments never clobber one file.
    let summarized_runs = to_run
        .iter()
        .filter(|name| summarized.contains(name))
        .count();
    if json_requested && summarized_runs == 0 {
        eprintln!(
            "warning: --json ignored — none of {} was requested",
            summarized.join("/")
        );
    }
    if json_explicit.is_some() && summarized_runs > 1 {
        eprintln!(
            "note: --json=<path> with several JSON experiments — each writes its default file"
        );
    }

    if run_all {
        println!(
            "running every experiment at {} scale\n",
            if full { "full" } else { "quick" }
        );
    }
    for name in to_run {
        if let Some(report) = experiments::by_name(name, &scale) {
            println!("{report}");
            continue;
        }
        let (_, run) = SUMMARIZED
            .iter()
            .find(|(known, _)| *known == name)
            .expect("unknown names were rejected above");
        // One measurement serves both the printed report and the artifact.
        let (report, json) = run(&scale);
        println!("{report}");
        if json_requested {
            let path = match json_explicit {
                Some(path) if summarized_runs == 1 => path.to_string(),
                _ => format!("BENCH_{name}.json"),
            };
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}
