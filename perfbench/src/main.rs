//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-identity|batch-grep|openloop-sample> \
//!     [--seed 2019] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Runs one workload over the six engine × SDK cells at parallelism 1
//! and prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run alternates
//! untraced and traced passes and reports the per-layer ones, and the
//! benchmark's spans are written to `perfbench/out/`. See
//! `perfbench/README.md` for the metric definitions.

mod cells;
mod floors;
mod report;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};
use workload::{Kind, Tally, Workload, WORKLOADS};

/// No measured execution starts later than this after launch, so a run
/// ends well inside its time limit even if a cell slows down.
const HARD_DEADLINE: Duration = Duration::from_secs(130);
/// Minimum measured executions per cell (per pass kind when tracing).
const MIN_REPS: usize = 3;
/// Records per cell warm-up: an unmeasured execution on a prefix of the
/// input.
const WARMUP_RECORDS: u64 = 2_000;
/// Offered rate of the standalone open-loop sends that give a batch
/// workload's `sender.lag_ms`: the open-loop workload's rate.
const LAG_RATE: f64 = 20_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2019;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let launched = Instant::now();
    let w = args.workload;
    let trace = trace::Trace::new(args.trace);
    let prepared = workload::prepare(&w, args.seed, &trace)?;
    let mut tally = Tally::default();

    // One unmeasured execution per cell on a prefix of the input.
    let warm = &prepared.payloads[..(WARMUP_RECORDS.min(w.records) as usize)];
    if matches!(w.kind, Kind::Batch) {
        let broker = &prepared.broker;
        broker
            .create_topic("warmup", logbus::TopicConfig::default())
            .map_err(|e| e.to_string())?;
        workload::send_batched(broker, "warmup", warm).map_err(|e| e.to_string())?;
    }
    let warm_reference = cells::Digest::reference(w.query, warm);
    for cell in cells::CELLS {
        let result = match w.kind {
            Kind::Batch => workload::batch_rep(
                &prepared.broker,
                "warmup",
                warm_reference,
                w.query,
                cell,
                "warmup",
                &trace,
            ),
            Kind::OpenLoop { rate } => {
                workload::openloop_trial(warm, args.seed, rate, w.query, cell, &trace)
            }
        };
        tally.record(&format!("warm-up {}", cells::label(cell)), result);
    }

    let runs = workload::measure_loop(
        Duration::from_secs(args.seconds),
        MIN_REPS,
        launched + HARD_DEADLINE,
        args.trace,
        &trace,
        &mut tally,
        |cell, pass| match w.kind {
            Kind::Batch => workload::batch_rep(
                &prepared.broker,
                "input",
                prepared.reference,
                w.query,
                cell,
                &pass.to_string(),
                &trace,
            ),
            Kind::OpenLoop { rate } => {
                workload::openloop_trial(&prepared.payloads, args.seed, rate, w.query, cell, &trace)
            }
        },
    );

    let untraced: Vec<_> = runs
        .iter()
        .map(|r| report::figures(w.kind, &r.untraced))
        .collect();
    let slowdowns = report::slowdowns(w.kind, &runs, &untraced, args.seed);
    let metrics = if args.trace {
        trace.set_active(true);
        let all_untraced = || runs.iter().flat_map(|r| &r.untraced);
        let (output_volume, lag_rate) = match w.kind {
            Kind::Batch => (prepared.reference.count, Some(LAG_RATE)),
            Kind::OpenLoop { .. } => {
                let outputs: Vec<f64> = all_untraced().map(|r| r.output_records as f64).collect();
                (stats::median(&outputs) as u64, None)
            }
        };
        let mut floors = tally
            .record(
                "floors",
                floors::measure(
                    &prepared,
                    w.query,
                    output_volume,
                    lag_rate,
                    args.seed,
                    &trace,
                ),
            )
            .unwrap_or_default();
        if lag_rate.is_none() {
            let lags: Vec<f64> = all_untraced()
                .filter_map(|r| r.send_lag_us)
                .map(|us| us as f64 / 1e3)
                .collect();
            floors.lag_ms = stats::median(&lags);
        }
        trace.set_active(false);
        let traced: Vec<_> = runs
            .iter()
            .map(|r| report::figures(w.kind, &r.traced))
            .collect();
        report::per_layer(
            w.kind,
            &prepared,
            &runs,
            &untraced,
            &traced,
            &floors,
            &slowdowns,
            prepared.broker.request_latency_micros() as f64,
        )
    } else {
        report::end_to_end(&prepared, &untraced)
    };

    for e in &tally.errors {
        eprintln!("perfbench: failed: {e}");
    }
    for (cell, (r, f)) in cells::CELLS.iter().zip(runs.iter().zip(&untraced)) {
        eprintln!(
            "perfbench: {:<15} n={:<3} exec_s={:.4} p50_ms={:.3} p99_ms={:.3} ({} samples)",
            cells::label(*cell),
            r.untraced.len(),
            f.exec_s,
            f.p50_ms,
            f.p99_ms,
            f.samples
        );
    }
    for s in &slowdowns {
        eprintln!(
            "perfbench: sf.{} = {:.2} [{:.2}, {:.2}]{}",
            s.engine,
            s.sf,
            s.lo,
            s.hi,
            if s.noise_limited {
                " noise-limited"
            } else {
                ""
            }
        );
    }

    let correct = tally.failed == 0 && metrics.all_finite();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    write_report(
        args, &prepared, &runs, &untraced, &slowdowns, &result, &trace,
    );
    println!("{result}");
    Ok(())
}

/// Writes the run's full record — result, per-cell figures, slowdown
/// intervals and (when tracing) the benchmark's spans — under
/// `perfbench/out/`. A failure to write is reported, not fatal.
fn write_report(
    args: &Args,
    prepared: &workload::Prepared,
    runs: &[workload::CellRuns],
    untraced: &[report::CellFigures],
    slowdowns: &[report::Slowdown],
    result: &str,
    trace: &trace::Trace,
) {
    let cells: Vec<String> = cells::CELLS
        .iter()
        .zip(runs.iter().zip(untraced))
        .map(|(cell, (r, f))| report::cell_details(*cell, r, f))
        .collect();
    let sf: Vec<String> = slowdowns
        .iter()
        .map(|s| {
            format!(
                "{{\"engine\": \"{}\", \"sf\": {}, \"lo\": {}, \"hi\": {}, \"noise_limited\": {}}}",
                s.engine,
                report::number(s.sf),
                report::number(s.lo),
                report::number(s.hi),
                s.noise_limited
            )
        })
        .collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {result}, \"setups_s\": [{}], \"cells\": [{}], \"slowdown\": [{}], \"spans\": {}}}\n",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prepared
            .setups_s
            .iter()
            .map(|&s| report::number(s))
            .collect::<Vec<_>>()
            .join(", "),
        cells.join(", "),
        sf.join(", "),
        obs::span::spans_to_json(&trace.spans())
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
