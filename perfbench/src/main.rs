//! The repository benchmark: one command that drives a workload end to
//! end, checks its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets the workload up several times (`setup_s` is the median),
//! runs one warm-up repetition on one worker thread, then repeats the
//! timed work on two worker threads until `--seconds` have passed. Every
//! repetition's modelled numbers and counts must match the warm-up's bit
//! for bit. With `--trace 1`, repetitions alternate between traced and
//! untraced; the traced ones record spans around every call into the
//! workspace crates, and a final probe splits preparation into its
//! component calls. The last line of standard output is one JSON object
//! with the metrics `BENCHMARK.json` lists for the mode.

mod report;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use report::{median, result_json, Metric};
use spans::Tracer;
use workloads::{Bench, Rep};

/// End-to-end metrics of the result line (`--trace 0`), as in
/// `BENCHMARK.json`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "host_ops_per_s",
    "peak_rss_mb",
    "recall_at_10",
    "sim_mean_us",
];

/// Per-layer metrics of the result line (`--trace 1`), as in
/// `BENCHMARK.json`: the ones every workload measures.
const PER_LAYER: [&str; 8] = [
    "vecdata.generate_s",
    "vecdata.ground_truth_s",
    "index.hnsw_build_s",
    "index.trace_s",
    "index.evals_per_query",
    "sim.cycles_ticked",
    "sim.cycles_skipped",
    "bench.trace_overhead_frac",
];

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["design_sweep", "shard_build", "serve_open_loop", "churn"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions per run (two are needed to compare runs,
/// and a traced run needs one traced and one untraced).
const MIN_REPS: usize = 2;
/// Worker threads of the timed repetitions (the warm-up uses one).
const MAX_THREADS: usize = 2;

/// Run ids that group spans.
const RUN_SETUP: u32 = 0;
const RUN_PROBE: u32 = 1_000;
const RUN_REP: u32 = 2_000;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one workload run measured.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        ok &= run_and_report(name, &args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload, print its report and result line; true when every
/// gate passed and the result line is complete.
fn run_and_report(name: &str, args: &Args) -> bool {
    let out = match name {
        "design_sweep" => run(&workloads::design_sweep::DesignSweep, name, args),
        "shard_build" => run(&workloads::shard_build::ShardBuild, name, args),
        "serve_open_loop" => run(&workloads::serve_open_loop::ServeOpenLoop, name, args),
        "churn" => run(&workloads::churn::Churn, name, args),
        _ => unreachable!("workload names are validated"),
    };
    let listed: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut errors = out.errors;
    let mut selected = Vec::new();
    for want in listed {
        match out.metrics.iter().find(|m| m.name == *want) {
            Some(m) if m.value.is_some() => selected.push(m),
            _ => errors.push(format!("metric {want} was not measured")),
        }
    }
    for m in &out.metrics {
        println!("{}", m.line());
    }
    for e in &errors {
        eprintln!("perfbench: {name}: FAILED: {e}");
    }
    println!(
        "{}",
        result_json(errors.is_empty(), out.attempted, out.failed, &selected)
    );
    errors.is_empty()
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run<W: Bench>(w: &W, name: &str, args: &Args) -> Outcome {
    println!("workload {name} (seed {}): {}", args.seed, W::WHY);
    let mut t = Tracer::new(args.trace);
    let mut errors = Vec::new();

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        t.set_run(RUN_SETUP + i as u32);
        let start = Instant::now();
        state = Some(w.setup(args.seed, &mut t));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");

    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, MAX_THREADS);
    let timed_rep = |t: &mut Tracer, threads: usize| {
        let (ticked, skipped) = (ansmet_sim::cycles_simulated(), ansmet_sim::cycles_skipped());
        let mut rep = w.rep(&state, args.seed, threads, t);
        let ticked = (ansmet_sim::cycles_simulated() - ticked) as f64;
        let skipped = (ansmet_sim::cycles_skipped() - skipped) as f64;
        rep.metrics.extend([
            Metric::value("sim.cycles_ticked", "count", ticked),
            Metric::value("sim.cycles_skipped", "count", skipped),
            Metric::ratio(
                "sim.skip_frac",
                "frac",
                skipped,
                "sim.cycles_total",
                ticked + skipped,
            ),
        ]);
        rep
    };

    // Warm-up on one thread: fills caches, and is the reference every
    // timed repetition (two threads, traced or not) must reproduce.
    t.set_enabled(false);
    let reference = timed_rep(&mut t, 1);
    errors.extend(reference.gates.iter().cloned());

    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(u32, Rep)> = Vec::new();
    let begin = Instant::now();
    let mut k = 0u32;
    while untraced.len() + traced.len() < MIN_REPS || begin.elapsed().as_secs_f64() < args.seconds {
        let tracing = args.trace && k.is_multiple_of(2);
        t.set_enabled(tracing);
        t.set_run(RUN_REP + k);
        let rep = timed_rep(&mut t, threads);
        check_same(&reference, &rep, k, tracing, threads, &mut errors);
        if tracing {
            traced.push((RUN_REP + k, rep));
        } else {
            untraced.push(rep);
        }
        k += 1;
    }

    let mut metrics: Vec<Metric> = Vec::new();
    metrics.push(Metric::value("setup_s", "s", median(&setup_times)));
    let rates: Vec<f64> = untraced.iter().map(|r| r.ops as f64 / r.busy_s).collect();
    metrics.push(Metric::value("host_ops_per_s", "1/s", median(&rates)));
    let busy = median(&untraced.iter().map(|r| r.busy_s).collect::<Vec<_>>());
    let (attempted, failed) = traced
        .iter()
        .map(|(_, r)| r)
        .chain(&untraced)
        .fold((0, 0), |(a, f), r| (a + r.ops, f + r.failed));
    metrics.push(Metric::ratio(
        "failed_frac",
        "frac",
        reference.failed as f64,
        "attempted",
        reference.ops as f64,
    ));
    metrics.extend(reference.metrics.iter().cloned());
    let ticked = reference
        .metrics
        .iter()
        .find(|m| m.name == "sim.cycles_ticked")
        .and_then(|m| m.value)
        .unwrap_or(0.0);
    metrics.push(Metric::ratio(
        "sim.host_ns_per_ticked_cycle",
        "ns",
        busy * 1e9,
        "sim.cycles_ticked",
        ticked,
    ));

    if args.trace {
        // Per-layer host time: each name's self time per traced
        // repetition (median), plus the probe's split of preparation.
        let mut per_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (run, _) in &traced {
            for (span, s) in t.self_seconds(*run) {
                per_name.entry(span).or_default().push(s);
            }
        }
        t.set_enabled(true);
        t.set_run(RUN_PROBE);
        w.probe(&state, args.seed, &mut t);
        let probe = t.self_seconds(RUN_PROBE);
        for (span, values) in per_name.iter().filter(|(s, _)| !probe.contains_key(*s)) {
            metrics.push(Metric::value(*span, "s", median(values)));
        }
        for (span, s) in probe {
            metrics.push(Metric::value(span, "s", s));
        }
        let traced_busy = median(&traced.iter().map(|(_, r)| r.busy_s).collect::<Vec<_>>());
        metrics.push(Metric::ratio(
            "bench.trace_overhead_frac",
            "frac",
            traced_busy - busy,
            "bench.untraced_busy_s",
            busy,
        ));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => errors.push(format!("writing spans to {}: {e}", path.display())),
        }
    }
    match peak_rss_mb() {
        Some(mb) => metrics.push(Metric::value("peak_rss_mb", "MB", mb)),
        None => errors.push("peak RSS is unavailable (no /proc/self/status)".into()),
    }
    metrics.push(Metric::value(
        "bench.timed_reps",
        "count",
        (traced.len() + untraced.len()) as f64,
    ));
    metrics.push(Metric::value("bench.threads", "count", threads as f64));
    Outcome {
        metrics,
        attempted,
        failed,
        errors,
    }
}

/// A repetition must reproduce the reference's modelled numbers and
/// counts exactly; any difference is a benchmark error, not noise.
fn check_same(
    reference: &Rep,
    rep: &Rep,
    k: u32,
    tracing: bool,
    threads: usize,
    errors: &mut Vec<String>,
) {
    let same = reference.metrics.len() == rep.metrics.len()
        && reference
            .metrics
            .iter()
            .zip(&rep.metrics)
            .all(|(a, b)| a.same_bits(b))
        && (reference.ops, reference.failed) == (rep.ops, rep.failed);
    if !same {
        let diff: Vec<String> = reference
            .metrics
            .iter()
            .zip(&rep.metrics)
            .filter(|(a, b)| !a.same_bits(b))
            .map(|(a, b)| format!("{} {:?} vs {:?}", a.name, a.value, b.value))
            .collect();
        errors.push(format!(
            "repetition {k} ({} threads, traced: {tracing}) differs from the 1-thread warm-up: {}",
            threads,
            diff.join("; ")
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn", 7, 3.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "churn", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "churn", "--seconds", "0"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn result_metric_names_are_valid() {
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(report::valid_name(name), "{name}");
        }
    }

    /// The metric lists and the frozen serving load here must be the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_matches() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} not declared"
            );
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + json.matches("\"why\": ").count(),
            "BENCHMARK.json declares metrics this command does not emit"
        );
        use workloads::churn::Churn;
        use workloads::design_sweep::DesignSweep;
        use workloads::serve_open_loop::{ServeOpenLoop, P99_LIMIT_US, RATES_QPS};
        for (name, why) in [
            ("design_sweep", DesignSweep::WHY),
            ("serve_open_loop", ServeOpenLoop::WHY),
            ("churn", Churn::WHY),
        ] {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(
                json.contains(&entry),
                "{name}: why differs from BENCHMARK.json"
            );
        }
        let rates: Vec<String> = RATES_QPS
            .iter()
            .map(|r| format!("{:.1}", r / 1e6))
            .collect();
        let frozen = format!("{} Mqps (p99 limit {P99_LIMIT_US} us)", rates.join("/"));
        assert!(
            json.contains(&frozen),
            "serving load {frozen:?} not recorded"
        );
    }
}
