//! The arrayflow benchmark: four closed-loop workloads, each doing a fixed
//! seeded amount of work, with every output checked against a reference
//! computed before timing.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_solve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! workload twice, untraced and then traced, and prints the per-layer
//! ledger: self time per op of every crate-level layer, the exact counts
//! (which must agree between the two runs), and the share of the untraced
//! op time the layers do not account for. The last line of standard output
//! is always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod cold;
mod edit;
mod measure;
mod report;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::{Counts, Pass};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["cold_solve", "serve_hot", "edit_session", "route_hop"];

/// Timed-phase ops per requested second, per workload. The op count is a
/// function of `--seconds` alone, never of how many ops fit in a window,
/// so a run does the same work on every machine. The traced invocation
/// runs the workload twice and its traced run replays every op, so it
/// does a third of the work per run.
fn ops_for(workload: &str, seconds: u64, traced: bool) -> usize {
    let per_second = match workload {
        "cold_solve" => 110,
        "edit_session" => 100,
        "serve_hot" => 6000,
        "route_hop" => 4000,
        _ => unreachable!("workload names are validated first"),
    };
    let ops = per_second * seconds as usize / if traced { 3 } else { 1 };
    // p99 needs at least ten samples beyond it.
    ops.max(1000)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// How many `setup_s` samples the untraced run of `cold_solve`,
/// `serve_hot` and `route_hop` takes; `setup_s` is their median.
/// (`edit_session` takes one per round of sessions.)
const SETUP_REPEATS: usize = 9;

/// A workload's inputs and references, prepared from the seed before
/// anything is timed.
enum Prepared {
    Cold(cold::Inputs),
    Edit(edit::Inputs),
    Serve(serve::Inputs),
}

impl Prepared {
    fn new(workload: &str, seed: u64, ops: usize) -> Prepared {
        match workload {
            "cold_solve" => Prepared::Cold(cold::Inputs::new(seed, ops)),
            "edit_session" => Prepared::Edit(edit::Inputs::new(seed, ops)),
            "serve_hot" => Prepared::Serve(serve::Inputs::new(seed, ops, serve::Topo::Direct)),
            "route_hop" => Prepared::Serve(serve::Inputs::new(seed, ops, serve::Topo::Routed)),
            _ => unreachable!("workload names are validated first"),
        }
    }

    fn run(&self, traced: bool, setup_repeats: usize) -> Pass {
        match self {
            Prepared::Cold(i) => cold::run(i, traced, setup_repeats),
            Prepared::Edit(i) => edit::run(i, traced),
            Prepared::Serve(i) => serve::run(i, traced, setup_repeats),
        }
    }
}

fn metric(value: f64, unit: &str) -> String {
    format!("{{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(String, f64, &str)]) {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\": {}", metric(*value, unit)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ops = ops_for(&args.workload, args.seconds, args.trace);
    println!(
        "workload {} seed {} trace {} (hardware threads: {})",
        args.workload,
        args.seed,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let prepared = Prepared::new(&args.workload, args.seed, ops);
    // Everything after preparation, servers and clients included, runs on
    // one CPU, so the serving workloads measure a one-CPU server. Thread
    // hand-offs then never wait for an idle CPU to be woken, which on a
    // shared virtual machine can take milliseconds and comes and goes over
    // minutes. Measured on a 2-vCPU host over five seeds, the spread of
    // serve_hot's p99 between runs was 0.40 of its median with servers and
    // clients pinned to different CPUs, and about 0.7 unpinned.
    match measure::pin_to_one_cpu() {
        Some(cpu) => println!("timed phases run on cpu {cpu}"),
        None => println!("timed phases run unpinned: cpu affinity unavailable"),
    }

    if !args.trace {
        let pass = prepared.run(false, SETUP_REPEATS);
        pass.print_summary("untraced");
        let correct = pass.failed() == 0;
        print_result(correct, pass.ops, pass.failed(), &pass.end_to_end());
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Traced invocation: the same workload twice with the same seed,
    // first untraced (the closure base and the determinism twin), then
    // traced.
    let base = prepared.run(false, 1);
    base.print_summary("untraced");
    let traced = prepared.run(true, 1);
    traced.print_summary("traced");
    if let Some(tracer) = &traced.tracer {
        let path = std::path::Path::new(".perfbench").join(format!("spans-{}.tsv", args.workload));
        match tracer.write_tsv(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    let mismatched = Counts::mismatches(&base.counts, &traced.counts, base.ops);
    for name in &mismatched {
        println!("determinism: {name} differs between two runs with the same seed");
    }
    if mismatched.is_empty() {
        println!("determinism: all exact counts repeat");
    }

    let ledger = report::ledger(&base, &traced);
    println!(
        "ledger: layers {:.1} us/op against untraced {:.1} us/op, unattributed {:.2}%{}",
        ledger.layer_sum_us,
        ledger.untraced_us,
        ledger.unattributed_pct,
        if ledger.unattributed_pct.abs() > 10.0 {
            " -- FLAGGED: above the 10% closure rule"
        } else {
            ""
        }
    );
    println!(
        "ledger: tracing overhead {:.2}% of untraced throughput",
        ledger.tracing_overhead_pct
    );
    let mut ranked: Vec<(&str, f64)> = ledger.layers.iter().map(|(k, v)| (*k, *v)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, us) in ranked.iter().filter(|(_, us)| *us != 0.0) {
        if report::OUTSIDE_LEDGER.contains(name) {
            println!("  {name:<28} {us:>12.3} us      (not on the op path)");
        } else {
            println!(
                "  {name:<28} {us:>12.3} us/op  {:>6.2}%",
                100.0 * us / ledger.layer_sum_us
            );
        }
    }

    let mut metrics: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    for name in report::LAYER_US {
        metrics.insert(
            name.to_string(),
            (ledger.layers.get(name).copied().unwrap_or(0.0), "us"),
        );
    }
    for (name, value, unit) in traced.per_layer_extras() {
        metrics.insert(name, (value, unit));
    }
    metrics.insert(
        "ledger.unattributed_pct".into(),
        (ledger.unattributed_pct, "%"),
    );
    metrics.insert(
        "ledger.tracing_overhead_pct".into(),
        (ledger.tracing_overhead_pct, "%"),
    );
    let metrics: Vec<(String, f64, &str)> =
        metrics.into_iter().map(|(k, (v, u))| (k, v, u)).collect();

    let failed = base.failed() + traced.failed();
    let correct = failed == 0 && mismatched.is_empty();
    print_result(correct, base.ops + traced.ops, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
