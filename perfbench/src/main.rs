//! The repository benchmark: SQL text in, checked rows out, on three
//! closed-loop workloads over TPC-H at scale factor 0.1.
//!
//! ```text
//! perfbench --workload <sql-serial|elastic-slo|distributed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets the system up, computes a reference result for each
//! query, warms up, then runs the timed window. After the window it times
//! more set-ups, each in a fresh child process (`--setup-only 1`); the
//! median of all set-ups is `setup_s`. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` it runs the window again with spans
//! recorded around each call into a layer, and prints the per-layer
//! metrics and the tracing overhead instead. The last line of standard output is one JSON object.
//! A wrong result makes the command exit non-zero. See `README.md`.

mod check;
mod distributed;
mod elastic;
mod metrics;
mod procfs;
mod seq;
mod serial;
mod stats;
mod trace;
mod workload;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_common::json::Json;
use accordion_tpch::{generate, TpchOptions};

use crate::check::Reference;
use crate::distributed::{wire_costs, Distributed};
use crate::elastic::ElasticSlo;
use crate::metrics::{end_to_end, overhead, per_layer, LayerInput, Metric, Window};
use crate::serial::SqlSerial;
use crate::stats::median;
use crate::trace::{write_spans, Tracer};
use crate::workload::{exec_options, timed_loop, warm_up, Ctx, Outcome, Probe, Rig, Sample};

const USAGE: &str =
    "usage: perfbench --workload <sql-serial|elastic-slo|distributed> --seed <n> --seconds <s> --trace <0|1>";

/// TPC-H scale factor and data seed; fixed, so every result can be checked.
const SCALE_FACTOR: f64 = 0.1;
const DATA_SEED: u64 = 42;
/// Set-ups per run, the run's own included; `setup_s` is their median.
/// All but the first run in child processes after the timed windows: each
/// child frees a few hundred MB when it exits, which slowed the queries
/// after it when set-ups were timed inside the window (README.md).
const SETUP_REPEATS: usize = 19;
/// A child set-up that takes longer than this is stopped and fails the run.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Queries of each kind the traced run replays after its window.
const REPLAYS_PER_KIND: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only set up once, print the times and exit: the child process of a
    /// timed set-up.
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--setup-only" => setup_only = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let setup_only = setup_only.unwrap_or(false);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed
            .or(setup_only.then_some(0))
            .ok_or("--seed is required")?,
        seconds: seconds
            .or(setup_only.then_some(1))
            .ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "sql-serial" => run::<SqlSerial>(&args),
        "elastic-slo" => run::<ElasticSlo>(&args),
        "distributed" => run::<Distributed>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run<R: Rig>(args: &Args) -> ExitCode {
    if args.setup_only {
        return match set_up::<R>() {
            Ok((system, generate_s, setup_s)) => {
                println!("{generate_s} {setup_s}");
                // The process ends here; stopping the system first would
                // only add to the parent's wait.
                std::mem::forget(system);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match bench::<R>(args) {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    header: String,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Report {
    fn print(&self) {
        println!("{}", self.header);
        for m in &self.metrics {
            println!(
                "  {:<36} {:>16.4} {:<10} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for note in &self.notes {
            println!("  {note}");
        }
        let mut metrics = Json::obj();
        for m in &self.metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            metrics.set(
                m.name.clone(),
                Json::obj()
                    .with("value", Json::f64(m.value))
                    .with("unit", Json::str(m.unit)),
            );
        }
        let line = Json::obj()
            .with("correct", Json::Bool(self.correct))
            .with("attempted", Json::u64(self.attempted as u64))
            .with("failed", Json::u64(self.failed as u64))
            .with("metrics", metrics);
        println!("{}", line.to_string_compact());
    }
}

/// Runs one timed window of `args.seconds`, reading the process counters
/// around it.
fn measure<R: Rig>(
    rig: &R,
    sessions: &mut [R::Session],
    args: &Args,
    ctx: &Ctx,
    ids: &AtomicU64,
) -> Result<Window, String> {
    let cpu_before = procfs::cpu_ms()?;
    let window = Duration::from_secs(args.seconds);
    let (samples, seconds) = timed_loop(rig, sessions, args.seed, window, ctx, ids);
    Ok(Window {
        samples,
        seconds,
        cpu_ms: procfs::cpu_ms()? - cpu_before,
        rss_mb: procfs::peak_rss_mb()?,
    })
}

/// Times one set-up in a fresh child process of this program, so that
/// every set-up starts from the same clean state and none leaves memory
/// or threads behind in this one. Returns the generation time and the
/// whole set-up time, in seconds, as the child measured them.
fn set_up_in_child(workload: &str) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--setup-only", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let stop = Instant::now() + SETUP_TIMEOUT;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > stop {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("set-up process ran over {SETUP_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        stdout.read_to_string(&mut out).map_err(|e| e.to_string())?;
    }
    if !status.success() {
        return Err(format!("set-up process failed: {status}"));
    }
    let times: Vec<f64> = out
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    match times[..] {
        [generate_s, setup_s] => Ok((generate_s, setup_s)),
        _ => Err(format!("set-up process printed {out:?}")),
    }
}

/// A started rig and its client sessions.
type System<R> = (R, Vec<<R as Rig>::Session>);

/// One set-up: generate the data and start the system, until the first
/// query can be sent. Returns the system, the generation time and the
/// whole set-up time, in seconds.
fn set_up<R: Rig>() -> Result<(System<R>, f64, f64), String> {
    let started = Instant::now();
    let data = generate(&TpchOptions {
        scale_factor: SCALE_FACTOR,
        seed: DATA_SEED,
        ..TpchOptions::default()
    });
    let generate_s = started.elapsed().as_secs_f64();
    let system = R::start(Arc::new(data.catalog))?;
    Ok((system, generate_s, started.elapsed().as_secs_f64()))
}

fn bench<R: Rig>(args: &Args) -> Result<Report, String> {
    // The first set-up is the system under test. The others run in child
    // processes after the windows, only to be timed: in this process they
    // would leave memory behind (an in-process worker holds its catalog for
    // the life of the process) and raise the window's peak RSS.
    let ((rig, mut sessions), g, s) = set_up::<R>()?;
    let (mut generate_s, mut setup_s) = (vec![g], vec![s]);

    let reference = Arc::new(Reference::compute(rig.catalog())?);
    let ids = AtomicU64::new(0);
    let plain = Ctx {
        reference: reference.clone(),
        tracer: Tracer::new(false),
    };
    let mut checked: Vec<Sample> = warm_up(&rig, &mut sessions, &plain, &ids);
    let untraced = measure(&rig, &mut sessions, args, &plain, &ids)?;

    let traced = if args.trace {
        let ctx = Ctx {
            reference,
            tracer: Tracer::new(true),
        };
        let fleet_before = rig.executor().map(|e| e.fleet().snapshot());
        let mut window = measure(&rig, &mut sessions, args, &ctx, &ids)?;
        let fleet_rounds = match (rig.executor(), fleet_before) {
            (Some(e), Some(before)) => {
                let after = e.fleet().snapshot();
                (
                    after.rounds - before.rounds,
                    after.cross_query_rounds - before.cross_query_rounds,
                )
            }
            _ => (0, 0),
        };
        // Replays run after the window, so they cannot change its timing.
        let mut replays = [0; 3];
        for sample in window.samples.iter_mut().filter(|s| s.ok()) {
            let done = &mut replays[sample.arrival.kind.index()];
            if *done < REPLAYS_PER_KIND {
                *done += 1;
                rig.replay(sample, &ctx);
            }
        }
        Some((ctx.tracer.spans(), window, fleet_rounds))
    } else {
        None
    };
    // Before the probe, whose abandoned queries may still be running.
    for _ in 1..SETUP_REPEATS {
        let (g, s) = set_up_in_child(&args.workload)?;
        generate_s.push(g);
        setup_s.push(s);
    }
    let probes: Vec<Probe> = rig.probe(&plain);
    let setup_note = format!(
        "median of {SETUP_REPEATS} set-ups ({:.3}-{:.3} s), each in a fresh process: generate TPC-H sf {SCALE_FACTOR}, start, connect",
        setup_s.iter().copied().fold(f64::MAX, f64::min),
        setup_s.iter().copied().fold(f64::MIN, f64::max),
    );
    let setup_s = median(&setup_s).expect("at least one set-up");

    let mut metrics = end_to_end(&untraced, &probes, setup_s, &setup_note);
    let mut notes = Vec::new();
    if let Some((spans, window, fleet_rounds)) = &traced {
        let wire = if R::MEASURES_WIRE {
            Some(wire_costs(rig.catalog(), exec_options(1).page_rows)?)
        } else {
            None
        };
        let mut layers = per_layer(&LayerInput {
            window,
            spans,
            generate_s: median(&generate_s).expect("at least one set-up"),
            fleet_rounds: *fleet_rounds,
            admission: rig
                .executor()
                .map(|e| e.admission().stats())
                .unwrap_or_default(),
            wire,
            probes: &probes,
        });
        layers.extend(overhead(
            &metrics,
            &end_to_end(window, &probes, setup_s, &setup_note),
        ));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match write_spans(&path, spans) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
        metrics = layers;
    }

    for p in &probes {
        notes.push(format!(
            "saturation probe: {} at 1 slot per node and DOP 2: {}",
            p.kind.name(),
            match &p.outcome {
                Outcome::Ok => "completed".to_string(),
                Outcome::Failed(e) | Outcome::Wrong(e) => e.clone(),
            }
        ));
    }
    let windows = std::iter::once(&untraced).chain(traced.as_ref().map(|(_, w, _)| w));
    checked.extend(windows.flat_map(|w| w.samples.iter().cloned()));
    let mut correct = true;
    let mut shown = 0;
    for s in &checked {
        if let Outcome::Wrong(e) | Outcome::Failed(e) = &s.outcome {
            correct &= !matches!(s.outcome, Outcome::Wrong(_));
            if shown < 5 {
                notes.push(format!(
                    "query {} ({}): {e}",
                    s.query,
                    s.arrival.kind.name()
                ));
                shown += 1;
            }
        }
    }
    correct &= !probes
        .iter()
        .any(|p| matches!(p.outcome, Outcome::Wrong(_)));
    let window = traced.as_ref().map_or(&untraced, |(_, w, _)| w);
    Ok(Report {
        header: format!(
            "{} seed {}: {:.2} s window, {} clients, trace {}",
            args.workload,
            args.seed,
            window.seconds,
            R::CLIENTS,
            if args.trace { "on" } else { "off" }
        ),
        metrics,
        notes,
        attempted: window.samples.len(),
        failed: window.samples.iter().filter(|s| !s.ok()).count(),
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_run_needs_a_seed_and_a_window_but_a_set_up_child_does_not() {
        let run = args("--workload sql-serial --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            (run.seed, run.seconds, run.trace, run.setup_only),
            (7, 30, true, false)
        );
        assert!(args("--workload sql-serial --seconds 30").is_err());
        assert!(args("--workload sql-serial --seed 7").is_err());
        let child = args("--workload distributed --setup-only 1").unwrap();
        assert!(child.setup_only);
        assert!(args("--workload distributed --bogus 1").is_err());
    }
}
