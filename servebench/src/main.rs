//! Serving benchmark for the xmlsec secure view server.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload wards|statements --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` starts a `SecureServer` on the epoll transport in-process,
//! drives the workload's seeded script over one keep-alive loopback
//! connection as a closed loop for `S` seconds, checks every output and
//! prints the end-to-end metrics. `--trace 1` runs the same phase, then
//! replays the executed operations in-process with spans around each
//! layer's public functions, and prints the per-layer metrics instead.
//! The last line of standard output is the JSON result; see README.md.

mod check;
mod client;
mod corpus;
mod serve;
mod stats;
mod trace;

use corpus::{Domain, Kind};
use stats::{median, quantile, result_json, Metrics};
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Written-document rounds whose reads are kept for the naive oracle:
/// one in this many, at a seeded offset.
const KEEP_EVERY: usize = 40;

pub struct Args {
    workload: String,
    domain: Domain,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = String::new();
    let mut domain = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                domain = Some(Domain::parse(value).ok_or(format!("unknown workload {value:?}"))?);
                workload = value.clone();
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload,
        domain: domain.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload wards|statements --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    // Before any thread starts, so the server's threads inherit it.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    match stats::pin_to_one_cpu() {
        Some(cpu) => eprintln!("servebench: {cpus} CPUs available; pinned to CPU {cpu}"),
        None => eprintln!("servebench: {cpus} CPUs available; could not pin to one"),
    }
    let mut setup_s = Vec::new();
    let mut kept: Option<serve::Setup> = None;
    for _ in 0..SETUPS {
        // Dropping the previous set-up shuts its transport down first.
        drop(kept.take());
        let s = serve::setup(args.domain, args.seed)?;
        setup_s.push(s.seconds);
        kept = Some(s);
    }
    let mut s = kept.expect("at least one set-up");
    let offset = stats::Rng::new(args.seed, 4).below(KEEP_EVERY);
    let phase = serve::timed_phase(&mut s, args.seconds, |r| r % KEEP_EVERY == offset)?;

    let t = std::time::Instant::now();
    let check::Checked { mut problems, cold } = check::check_phase(&mut s, &phase)?;
    if let Err(e) = check::Checker::self_test(args.seed) {
        problems.push(e);
    }
    let check_s = t.elapsed().as_secs_f64();
    let attempted = phase.records.len();
    let failed = phase.failed();
    for r in phase.records.iter().filter(|r| r.failed()).take(10) {
        eprintln!(
            "servebench: failed {:?} on {} (status {}, expected {})",
            r.op.kind,
            s.workload.docs[r.op.doc].uri,
            r.status,
            r.op.kind.expected_status()
        );
    }
    eprintln!(
        "servebench: {} operations in {:.2}s, checks {:.2}s, cold pool {} pairs",
        attempted,
        phase.elapsed_s,
        check_s,
        s.workload.script.cold_len()
    );

    let metrics = if args.trace {
        let (metrics, disagreed) = trace::per_layer(s, &phase, &cold, args)?;
        problems.extend(disagreed);
        metrics
    } else {
        end_to_end(&phase, &setup_s)
    };
    for p in problems.iter().take(20) {
        eprintln!("servebench: check: {p}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("servebench: {name:<34} {value:>14.4} {unit}");
    }
    Ok(result_json(problems.is_empty(), attempted, failed, &metrics))
}

/// The end-to-end metrics of one phase.
fn end_to_end(phase: &serve::Phase, setup_s: &[f64]) -> Metrics {
    let mut m: Metrics = vec![("setup_s".into(), median(setup_s), "s")];
    for kind in corpus::KINDS {
        let v = phase.ok(kind);
        let name = kind.name();
        eprintln!("servebench: {name}: {} samples", v.len());
        m.push((format!("{name}_p50_ms"), median(&v), "ms"));
        // Tails only where they repeat here: the cold kinds' p90 is set by
        // document size; a commit's p90 moved up to 33% between runs.
        if matches!(kind, Kind::ViewCold | Kind::Query) {
            if v.len() < 100 {
                eprintln!("servebench: {name}_p90_ms rests on fewer than 10 samples beyond it");
            }
            m.push((format!("{name}_p90_ms"), quantile(&v, 0.9), "ms"));
        }
    }
    let done = (phase.records.len() - phase.failed()) as f64;
    m.push(("ops_per_s".into(), done / phase.elapsed_s, "1/s"));
    m.push(("cpu_ms_per_op".into(), phase.cpu_s * 1e3 / done, "ms"));
    m.push(("peak_rss_mb".into(), phase.peak_rss_mb, "MB"));
    m
}
