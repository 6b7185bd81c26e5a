//! Regenerates every table and figure of the paper's evaluation section,
//! and runs the latency, scale-out and failover campaigns.
//!
//! ```sh
//! # Everything (the per-experiment index of DESIGN.md):
//! STREAMBENCH_RECORDS=50000 STREAMBENCH_RUNS=5 cargo run --release -p streambench-bench --bin reproduce -- all
//! # Or a single artifact:
//! cargo run --release -p streambench-bench --bin reproduce -- fig9
//! # With instrumentation: any target plus `--obs-json <path>` enables
//! # the obs layer, prints the span tree, and writes metrics + spans +
//! # per-stage totals as JSON:
//! cargo run --release -p streambench-bench --bin reproduce -- smoke --obs-json obs.json
//! # Under chaos: any batch target plus `--fault-seed <n>` injects
//! # seeded transient broker faults into every processing phase and
//! # appends the run-incident table (which runs needed retries, which
//! # were dropped):
//! cargo run --release -p streambench-bench --bin reproduce -- smoke --fault-seed 2019
//! # Latency mode: an open-loop, coordinated-omission-safe offered-rate
//! # sweep per (engine, SDK, parallelism) cell, with p50/p95/p99/p999
//! # and a sustainable-vs-overloaded verdict per trial:
//! STREAMBENCH_LATENCY_RATES=500,2000,8000 cargo run --release -p streambench-bench --bin reproduce -- latency --json latency.json
//! # Scale-out mode: binary-search the max sustainable open-loop rate
//! # per (engine, SDK, parallelism) cell, input topic partitioned to
//! # the cell's parallelism and split by the engine's consumer group:
//! cargo run --release -p streambench-bench --bin reproduce -- scaleout --json scaleout.json
//! # Failover mode: every cell against a replicated cluster while the
//! # partition leader's host is repeatedly failed; byte-identical output
//! # plus unavailability percentiles:
//! cargo run --release -p streambench-bench --bin reproduce -- failover --json failover.json
//! ```
//!
//! Knobs are environment variables; a malformed or zero value exits 2
//! naming the knob (warmup and iteration counts may be zero; lists are
//! comma-separated):
//!
//! - batch targets: `STREAMBENCH_RECORDS`, `STREAMBENCH_RUNS`;
//! - `latency`: `STREAMBENCH_LATENCY_{RECORDS,WARMUP,RATES,PARALLELISMS}`;
//! - `scaleout`: `STREAMBENCH_SCALEOUT_{RECORDS,WARMUP,PARALLELISMS}` and
//!   `STREAMBENCH_SCALEOUT_{MIN_RATE,MAX_RATE,ITERS}`;
//! - `failover`: `STREAMBENCH_FAILOVER_{RECORDS,KILLS}`.
//!
//! Absolute numbers differ from the paper (this substrate is an
//! in-process simulation, not a virtualized JVM cluster); the reproduced
//! quantity is the *shape*: orderings, ratios, and where the exceptions
//! fall. See EXPERIMENTS.md for the side-by-side record.

use std::collections::BTreeMap;
use std::str::FromStr;
use streambench_core::report::{self, JsonObject};
use streambench_core::{
    run_failover, run_latency, Api, BenchConfig, BenchmarkRunner, CampaignConfig, Measurement,
    Query, System, Trials,
};

fn main() {
    let knobs = Knobs(|name: &str| std::env::var(name).ok());
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs_json = take_value(&mut args, "--obs-json");
    let fault_seed = take_value(&mut args, "--fault-seed")
        .map(|raw| check(parse_one("--fault-seed", &raw, Zero::Allowed)));
    let json = take_value(&mut args, "--json");
    let target = args.first().map_or("all", String::as_str);

    if obs_json.is_some() {
        obs::set_enabled(true);
        obs::global().reset();
    }
    let campaign_mode = matches!(target, "latency" | "scaleout" | "failover");
    if (campaign_mode && fault_seed.is_some()) || (!campaign_mode && json.is_some()) {
        usage("--json is for latency|scaleout|failover, --fault-seed for the batch targets");
    }
    let bench = || check(knobs.bench(fault_seed));

    match target {
        "latency" | "scaleout" => open_loop(check(knobs.campaign(target)), json),
        "failover" => failover(check(knobs.campaign(target)), json),
        "smoke" => smoke(fault_seed),
        "table1" => print!("{}", report::table_one()),
        "table2" => print!("{}", report::table_two()),
        "fig6" => figures(&[Query::Identity], &bench()),
        "fig7" => figures(&[Query::Sample], &bench()),
        "fig8" => figures(&[Query::Projection], &bench()),
        "fig9" => figures(&[Query::Grep], &bench()),
        "fig10" => fig10_and_table3(false, &bench()),
        "table3" => fig10_and_table3(true, &bench()),
        "fig11" => fig11(&bench()),
        "all" => {
            let config = bench();
            println!("=== Table I: system comparison ===");
            print!("{}", report::table_one());
            println!("\n=== Table II: benchmark queries ===");
            print!("{}", report::table_two());
            println!();
            // One noise-off campaign feeds Figs. 6-9 and 11; the noisy
            // campaign feeds Fig. 10 and Table III.
            let measurements = campaign(&Query::ALL, false, &config);
            for query in Query::ALL {
                print_figure(&measurements, query);
            }
            print_slowdowns(&measurements);
            fig10_and_table3(true, &config);
        }
        other => usage(&format!(
            "unknown target `{other}`; use \
             smoke|table1|table2|fig6|fig7|fig8|fig9|fig10|fig11|table3|all|latency|scaleout|failover"
        )),
    }

    if let Some(path) = obs_json {
        export_obs(&path);
    }
}

/// Prints `message` and exits 2: the usage-error exit code.
fn usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Unwraps a knob reading, exiting 2 with the knob's error.
fn check<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| usage(&e))
}

/// Removes `<flag> <value>` from the argument list, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        usage(&format!("{flag} requires an argument"));
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Some(value)
}

/// A knob's value type: an integer or float with a zero default.
trait Knob: FromStr + PartialOrd + Default + Copy {}
impl<T: FromStr + PartialOrd + Default + Copy> Knob for T {}

/// Whether a knob accepts zero: a warmup, iteration count or seed does;
/// a record count, run count, rate, parallelism or kill count does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Zero {
    Allowed,
    Rejected,
}

/// Parses knob `name`'s value: comma-separated plain decimal numbers,
/// each of type `T` and, unless zero is allowed, positive.
fn parse<T: Knob>(name: &str, raw: &str, zero: Zero) -> Result<Vec<T>, String> {
    let expected = match zero {
        Zero::Allowed => "a non-negative",
        Zero::Rejected => "a positive",
    };
    raw.split(',')
        .map(|part| {
            let part = part.trim();
            let decimal = part.bytes().all(|b| b.is_ascii_digit() || b == b'.');
            match part.parse::<T>() {
                Ok(v) if decimal && (zero == Zero::Allowed || v > T::default()) => Ok(v),
                _ => Err(format!(
                    "{name}: `{part}` is not {expected} {}",
                    std::any::type_name::<T>()
                )),
            }
        })
        .collect()
}

/// [`parse`] for a knob that holds exactly one value.
fn parse_one<T: Knob>(name: &str, raw: &str, zero: Zero) -> Result<T, String> {
    match parse(name, raw, zero)?[..] {
        [value] => Ok(value),
        ref values => Err(format!("{name}: expected one number, got {}", values.len())),
    }
}

/// The one knob reader: every `STREAMBENCH_*` value the binary honours
/// goes through it. `main` looks knobs up in the environment.
struct Knobs<F>(F);

impl<F: Fn(&str) -> Option<String>> Knobs<F> {
    /// Overwrites `slot` with knob `name`'s list, if the knob is set.
    fn set_list<T: Knob>(&self, slot: &mut Vec<T>, name: &str, zero: Zero) -> Result<(), String> {
        if let Some(raw) = (self.0)(name) {
            *slot = parse(name, &raw, zero)?;
        }
        Ok(())
    }

    /// Overwrites `slot` with knob `name`'s single value, if set.
    fn set<T: Knob>(&self, slot: &mut T, name: &str, zero: Zero) -> Result<(), String> {
        if let Some(raw) = (self.0)(name) {
            *slot = parse_one(name, &raw, zero)?;
        }
        Ok(())
    }

    /// The batch campaign's configuration: `STREAMBENCH_RECORDS` and
    /// `STREAMBENCH_RUNS` over [`BenchConfig::default`].
    fn bench(&self, fault_seed: Option<u64>) -> Result<BenchConfig, String> {
        let mut config = BenchConfig::default();
        self.set(&mut config.records, "STREAMBENCH_RECORDS", Zero::Rejected)?;
        self.set(&mut config.runs, "STREAMBENCH_RUNS", Zero::Rejected)?;
        config.fault_seed = fault_seed;
        Ok(config)
    }

    /// The `latency`, `scaleout` or `failover` mode's defaults with its
    /// `STREAMBENCH_<MODE>_*` knobs applied.
    fn campaign(&self, mode: &str) -> Result<CampaignConfig, String> {
        let mut config = match mode {
            "latency" => CampaignConfig::latency(),
            "scaleout" => CampaignConfig::scaleout(),
            _ => CampaignConfig::failover(),
        };
        let prefix = mode.to_uppercase();
        let name = |knob: &str| format!("STREAMBENCH_{prefix}_{knob}");
        self.set(&mut config.records, &name("RECORDS"), Zero::Rejected)?;
        match &mut config.trials {
            // The failover mode has no warmup or parallelism knobs.
            Trials::Kills(kills) => {
                return self
                    .set(kills, &name("KILLS"), Zero::Rejected)
                    .map(|()| config)
            }
            Trials::Rates(rates) => self.set_list(rates, &name("RATES"), Zero::Rejected)?,
            Trials::Search {
                min_rate,
                max_rate,
                iters,
            } => {
                self.set(min_rate, &name("MIN_RATE"), Zero::Rejected)?;
                self.set(max_rate, &name("MAX_RATE"), Zero::Rejected)?;
                self.set(iters, &name("ITERS"), Zero::Allowed)?;
            }
        }
        self.set(&mut config.warmup_records, &name("WARMUP"), Zero::Allowed)?;
        self.set_list(
            &mut config.parallelisms,
            &name("PARALLELISMS"),
            Zero::Rejected,
        )?;
        // Values that are fine alone can still combine badly, such as
        // a search floor above its ceiling.
        config.validate().map_err(|e| e.to_string())?;
        Ok(config)
    }
}

/// The open-loop campaigns: runs the latency sweep or the scale-out
/// search, prints its table, and writes the JSON report when asked.
fn open_loop(config: CampaignConfig, json: Option<String>) {
    eprintln!(
        "running open-loop campaign: {} query, {} records/trial, {:?}, parallelisms {:?}",
        config.query, config.records, config.trials, config.parallelisms
    );
    let report = run_latency(&config).unwrap_or_else(|e| fail(&format!("campaign failed: {e}")));
    match config.trials {
        Trials::Search { .. } => print!("{}", report::scaleout_table(&report)),
        _ => print!("{}", report::latency_table(&report)),
    }
    write_json(json, &report.to_json());
}

/// The kill-the-leader campaign: prints per-cell outcomes and
/// unavailability percentiles, writes the JSON report when asked, and
/// exits 1 if any cell's output diverged from the reference.
fn failover(config: CampaignConfig, json: Option<String>) {
    eprintln!(
        "running failover campaign: {} records x {} cells, {:?} per cell",
        config.records,
        config.setups().len(),
        config.trials,
    );
    let report = run_failover(&config).unwrap_or_else(|e| fail(&format!("campaign failed: {e}")));
    for cell in &report.cells {
        let windows = &cell.unavailability;
        println!(
            "  {:<16} ok={} kills={} displaced={} epoch={} unavailability p50={}us p99={}us",
            format!("{}/{}", cell.setup.system, cell.setup.api),
            cell.output_ok,
            cell.kills,
            cell.displaced_containers,
            cell.input_epoch,
            windows.p50(),
            windows.p99(),
        );
    }
    let all = report.unavailability();
    println!(
        "overall unavailability over {} windows: p50={}us p99={}us max={}us",
        all.count,
        all.p50(),
        all.p99(),
        all.max,
    );
    write_json(json, &report.to_json());
    if !report.all_ok() {
        fail("FAIL: at least one cell diverged from the reference output");
    }
}

/// Prints `message` and exits 1: the run itself failed.
fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}

/// Writes a campaign's JSON report to `path`, if one was given.
fn write_json(path: Option<String>, json: &str) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(&path, json) {
            fail(&format!("failed to write {path}: {e}"));
        }
        eprintln!("report written to {path}");
    }
}

/// A minimal instrumented campaign: the grep query across all six
/// system × API setups, one run, small workload. Exists so CI can assert
/// the instrumentation pipeline end to end in seconds.
fn smoke(fault_seed: Option<u64>) {
    let mut config = BenchConfig::quick()
        .records(500)
        .runs(1)
        .parallelisms(vec![1]);
    if let Some(seed) = fault_seed {
        config = config.with_fault_seed(seed);
    }
    eprintln!(
        "running smoke campaign: grep, 500 records, 6 setups{}",
        fault_seed
            .map(|s| format!(", fault seed {s}"))
            .unwrap_or_default()
    );
    let runner = BenchmarkRunner::new(config);
    let outcome = runner.run_query_report(Query::Grep).expect("smoke run");
    let rows = report::average_times(&outcome.measurements, Query::Grep);
    println!(
        "{}",
        report::render_bars("=== smoke: grep execution times (s) ===", &rows, "s")
    );
    print!("{}", report::render_incidents(&outcome.incidents));
}

/// Writes the collected metrics, spans, and per-stage totals as JSON and
/// prints the span tree.
fn export_obs(path: &str) {
    let spans = obs::global().tracer().snapshot_spans();
    let metrics = obs::global().registry().snapshot();

    // Per-stage totals: summed duration of every span with a benchmark
    // stage name (the three-phase process of paper §III-A, with `process`
    // split out of `measure` = drain + calculate).
    let mut stages: BTreeMap<&str, u64> = BTreeMap::new();
    for stage in ["send", "process", "drain", "calculate"] {
        stages.insert(stage, 0);
    }
    for span in &spans {
        if let Some(total) = stages.get_mut(span.name.as_str()) {
            *total += span.duration_micros;
        }
    }

    let stages = stages
        .iter()
        .fold(JsonObject::default(), |out, (stage, micros)| {
            out.num(stage, micros)
        });
    let out = JsonObject::default()
        .raw("metrics", &metrics.to_json())
        .raw("spans", &obs::span::spans_to_json(&spans))
        .raw("stages", &stages.finish())
        .finish();
    std::fs::write(path, &out).expect("write obs json");

    eprintln!("\n=== span tree ===");
    eprint!("{}", obs::span::render_tree(&spans));
    eprintln!("obs snapshot written to {path}");
}

/// One batch campaign over `queries`, noise on or off, printing the
/// run-incident table.
fn campaign(queries: &[Query], noise: bool, config: &BenchConfig) -> Vec<Measurement> {
    let mut config = config.clone();
    if noise {
        config = config.with_noise(2019);
    }
    eprintln!(
        "running campaign: {} records, {} runs, parallelisms {:?}, noise {}{}",
        config.records,
        config.runs,
        config.parallelisms,
        if noise { "on" } else { "off" },
        config
            .fault_seed
            .map(|s| format!(", fault seed {s}"))
            .unwrap_or_default()
    );
    let runner = BenchmarkRunner::new(config);
    let mut measurements = Vec::new();
    let mut incidents = Vec::new();
    for &query in queries {
        eprintln!("  benchmarking {query} over the 12-setup matrix...");
        let outcome = runner.run_query_report(query).expect("benchmark run");
        measurements.extend(outcome.measurements);
        incidents.extend(outcome.incidents);
    }
    print!("{}", report::render_incidents(&incidents));
    measurements
}

/// Prints Fig. 6, 7, 8 or 9: average execution times of one query.
fn print_figure(measurements: &[Measurement], query: Query) {
    let number = match query {
        Query::Identity => 6,
        Query::Sample => 7,
        Query::Projection => 8,
        Query::Grep => 9,
    };
    let rows = report::average_times(measurements, query);
    let title = format!("=== Fig. {number}: average execution times — {query} query (s) ===");
    println!("{}", report::render_bars(&title, &rows, "s"));
}

/// Prints Fig. 11: the slowdown factor of every query.
fn print_slowdowns(measurements: &[Measurement]) {
    let mut rows = Vec::new();
    for query in Query::ALL {
        rows.extend(report::slowdown_factors(measurements, query));
    }
    let title = "=== Fig. 11: slowdown factor sf(dsps, query) ===";
    println!("{}", report::render_bars(title, &rows, "x"));
}

fn figures(queries: &[Query], config: &BenchConfig) {
    let measurements = campaign(queries, false, config);
    for &query in queries {
        print_figure(&measurements, query);
    }
}

fn fig11(config: &BenchConfig) {
    print_slowdowns(&campaign(&Query::ALL, false, config));
}

fn fig10_and_table3(with_table3: bool, config: &BenchConfig) {
    // The variance experiments run with the environment-noise model on:
    // the paper's cluster had noisy neighbours, this substrate does not
    // (see DESIGN.md).
    let measurements = campaign(&Query::ALL, true, config);
    let rows = report::relative_std_devs(&measurements);
    println!(
        "{}",
        report::render_bars(
            "=== Fig. 10: relative standard deviation per system-query-SDK ===",
            &rows,
            ""
        )
    );
    if with_table3 {
        let per_run: BTreeMap<usize, Vec<f64>> =
            report::per_run_times(&measurements, System::Rill, Api::Native, Query::Identity);
        println!("=== Table III: per-run identity times on the Flink analog ===");
        print!("{}", report::table_three(&per_run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn knobs(pairs: &[(&str, &str)]) -> Knobs<impl Fn(&str) -> Option<String>> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|&(name, value)| (name.to_string(), value.to_string()))
            .collect();
        Knobs(move |name: &str| map.get(name).cloned())
    }

    fn latency(pairs: &[(&str, &str)]) -> Result<CampaignConfig, String> {
        knobs(pairs).campaign("latency")
    }

    fn scaleout(pairs: &[(&str, &str)]) -> Result<CampaignConfig, String> {
        knobs(pairs).campaign("scaleout")
    }

    #[test]
    fn zero_records_are_rejected() {
        let err = knobs(&[("STREAMBENCH_RECORDS", "0")])
            .bench(None)
            .unwrap_err();
        assert!(err.contains("STREAMBENCH_RECORDS"), "{err}");
    }

    #[test]
    fn malformed_records_are_rejected() {
        let err = latency(&[("STREAMBENCH_LATENCY_RECORDS", "abc")]).unwrap_err();
        assert!(err.contains("STREAMBENCH_LATENCY_RECORDS"), "{err}");
    }

    #[test]
    fn iterations_beyond_u32_are_rejected() {
        let err = scaleout(&[("STREAMBENCH_SCALEOUT_ITERS", "4294967296")]).unwrap_err();
        assert!(err.contains("STREAMBENCH_SCALEOUT_ITERS"), "{err}");
        // Zero bisection rounds is a valid two-point search.
        let config = scaleout(&[("STREAMBENCH_SCALEOUT_ITERS", "0")]).unwrap();
        assert!(matches!(config.trials, Trials::Search { iters: 0, .. }));
    }

    #[test]
    fn list_with_a_junk_entry_is_rejected() {
        let err = latency(&[("STREAMBENCH_LATENCY_RATES", "500, 2000,junk")]).unwrap_err();
        assert!(err.contains("STREAMBENCH_LATENCY_RATES"), "{err}");
        let config = latency(&[("STREAMBENCH_LATENCY_RATES", "500, 2000")]).unwrap();
        assert_eq!(config.trials, Trials::Rates(vec![500.0, 2_000.0]));
    }

    #[test]
    fn inverted_search_bracket_is_rejected() {
        let err = scaleout(&[("STREAMBENCH_SCALEOUT_MAX_RATE", "400")]).unwrap_err();
        assert!(err.contains("rate bracket"), "{err}");
    }

    #[test]
    fn latency_knobs_override_defaults() {
        let config = latency(&[
            ("STREAMBENCH_LATENCY_RECORDS", "123"),
            ("STREAMBENCH_LATENCY_WARMUP", "0"),
            ("STREAMBENCH_LATENCY_RATES", "100,400"),
            ("STREAMBENCH_LATENCY_PARALLELISMS", "1"),
        ])
        .unwrap();
        assert_eq!(config.records, 123);
        assert_eq!(config.warmup_records, 0);
        assert_eq!(config.trials, Trials::Rates(vec![100.0, 400.0]));
        assert_eq!(config.parallelisms, vec![1]);
    }

    #[test]
    fn scaleout_knobs_override_defaults() {
        let config = scaleout(&[
            ("STREAMBENCH_SCALEOUT_RECORDS", "321"),
            ("STREAMBENCH_SCALEOUT_PARALLELISMS", "1,4"),
            ("STREAMBENCH_SCALEOUT_MIN_RATE", "250"),
            ("STREAMBENCH_SCALEOUT_MAX_RATE", "1000"),
            ("STREAMBENCH_SCALEOUT_ITERS", "2"),
        ])
        .unwrap();
        assert_eq!(config.records, 321);
        assert_eq!(config.parallelisms, vec![1, 4]);
        let bracket = Trials::Search {
            min_rate: 250.0,
            max_rate: 1_000.0,
            iters: 2,
        };
        assert_eq!(config.trials, bracket);
    }
}
