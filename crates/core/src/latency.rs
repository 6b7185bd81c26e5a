//! The latency-mode benchmark: per-record end-to-end latency under an
//! open-loop offered load, per (engine, SDK, parallelism) cell.
//!
//! The paper measures *execution time* of a preloaded bounded workload
//! (§III-A); this module extends its slowdown-factor matrix with a
//! latency dimension using the sustainable-throughput methodology of
//! Karimov et al. (ICDE 2018):
//!
//! 1. **Open-loop generation** — an [`OpenLoopSchedule`]d sender
//!    (phase 1's data sender in streaming dress) appends records at a
//!    configured rate. Each record's **event time** is its *scheduled*
//!    arrival, fixed by the rate alone, so a stalled sender bursts to
//!    catch up and the queueing delay is charged to latency — the
//!    measurement is coordinated-omission-safe.
//! 2. **Follow-mode execution** — the engine under test tails the input
//!    topic (bounded buffering and source throttling all the way down,
//!    so overload backpressures instead of OOMing) until it has consumed
//!    the trial's records, writing query outputs to the output topic.
//! 3. **Sink-side measurement** — per-record latency is the output
//!    record's broker `LogAppendTime` minus the event time carried in
//!    the payload prefix, accumulated into an [`obs::Histogram`]
//!    (p50/p95/p99/p999).
//!
//! A cell is swept over increasing offered rates ([`Trials::Rates`]) or
//! searched for its max sustainable rate ([`Trials::Search`],
//! [`crate::scaleout`]); each trial is classified **sustainable** (p99
//! within [`P99_BOUND_MICROS`], output drained within [`CATCHUP_RATIO`]
//! of the arrival time, correct output) or **overloaded**. The report
//! keeps every trial and highlights the highest sustainable rate.
//!
//! Caveat recorded in EXPERIMENTS.md: broker round trips here are
//! *simulated* (a configurable per-request delay on an in-process
//! broker), so absolute latencies are not comparable to a networked
//! cluster; the reproduced quantity is the *relative* shape — which
//! cells saturate first and what the abstraction layer adds.

use crate::config::{BenchConfig, CampaignConfig, Trials, CATCHUP_RATIO, P99_BOUND_MICROS};
use crate::report::{json_array, JsonObject};
use crate::runner::{execute_setup, BenchError};
use crate::sender::{parse_event_time_micros, send_open_loop_partitioned, OpenLoopSchedule};
use crate::setup::Setup;
use logbus::{Broker, TopicConfig};

/// One (cell, offered rate) trial.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTrial {
    /// Offered rate, records per second.
    pub offered_rate: f64,
    /// Output records drained from the output topic.
    pub output_records: u64,
    /// Latency samples measured (outputs after warmup with a parseable
    /// event-time prefix).
    pub measured: u64,
    /// Median end-to-end latency, µs.
    pub p50_micros: u64,
    /// 95th percentile, µs.
    pub p95_micros: u64,
    /// 99th percentile, µs.
    pub p99_micros: u64,
    /// 99.9th percentile, µs.
    pub p999_micros: u64,
    /// Worst observed latency, µs.
    pub max_micros: u64,
    /// Mean latency, µs.
    pub mean_micros: f64,
    /// Output append span over offered arrival span; > 1 means the
    /// engine needed longer than the arrival window to drain.
    pub drain_ratio: f64,
    /// Worst sender wake-up lag behind its schedule, µs (the burst debt
    /// that was charged to latency rather than hidden).
    pub max_send_lag_micros: i64,
    /// Whether the output record count matched the query's expectation
    /// (always true for queries without a fixed expectation).
    pub output_ok: bool,
    /// The sustainable-vs-overloaded verdict for this trial.
    pub sustainable: bool,
}

/// One cell of the latency matrix: a [`Setup`] with its rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCell {
    /// The cell's setup (system × SDK × parallelism).
    pub setup: Setup,
    /// Trials in ascending offered-rate order.
    pub trials: Vec<LatencyTrial>,
}

impl LatencyCell {
    /// The trial at the highest offered rate the cell sustained, if any.
    pub fn highest_sustainable(&self) -> Option<&LatencyTrial> {
        self.trials
            .iter()
            .filter(|t| t.sustainable)
            .max_by(|a, b| a.offered_rate.total_cmp(&b.offered_rate))
    }
}

/// The report of an open-loop campaign: every cell with its trials.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// The campaign that ran.
    pub config: CampaignConfig,
    /// All cells, in [`CampaignConfig::setups`] order.
    pub cells: Vec<LatencyCell>,
}

impl LatencyReport {
    /// Serializes the report as JSON (schema asserted by CI's
    /// `latency-smoke` and `scaleout-smoke` jobs): per-cell trials with
    /// p50/p95/p99/p999 and a boolean `sustainable` flag, plus the
    /// highest sustainable rate. A scale-out report names them `probes`
    /// and `max_sustainable_rate` and adds its search bracket.
    pub fn to_json(&self) -> String {
        let mut head = JsonObject::default()
            .str("query", &self.config.query.to_string())
            .num("records_per_trial", self.config.records)
            .num("warmup_records", self.config.warmup_records)
            .num("p99_bound_micros", P99_BOUND_MICROS)
            .float("catchup_ratio", CATCHUP_RATIO);
        let (rate_key, trials_key) = match self.config.trials {
            Trials::Search {
                min_rate, max_rate, ..
            } => {
                head = head.float("min_rate", min_rate).float("max_rate", max_rate);
                ("max_sustainable_rate", "probes")
            }
            _ => ("highest_sustainable_rate", "trials"),
        };
        let cells = json_array(&self.cells, |cell| {
            JsonObject::default()
                .str("system", &cell.setup.system.to_string())
                .str("sdk", &cell.setup.api.to_string())
                .num("parallelism", cell.setup.parallelism)
                .str("label", &cell.setup.label())
                .float(rate_key, cell.highest_sustainable().map(|t| t.offered_rate))
                .raw(trials_key, &json_array(&cell.trials, trial_json))
                .finish()
        });
        head.raw("cells", &cells).finish()
    }
}

fn trial_json(t: &LatencyTrial) -> String {
    JsonObject::default()
        .float("offered_rate", t.offered_rate)
        .num("sustainable", t.sustainable)
        .num("output_records", t.output_records)
        .num("measured", t.measured)
        .num("p50_micros", t.p50_micros)
        .num("p95_micros", t.p95_micros)
        .num("p99_micros", t.p99_micros)
        .num("p999_micros", t.p999_micros)
        .num("max_micros", t.max_micros)
        .float("mean_micros", t.mean_micros)
        .float("drain_ratio", t.drain_ratio)
        .num("max_send_lag_micros", t.max_send_lag_micros)
        .num("output_ok", t.output_ok)
        .finish()
}

/// Runs an open-loop campaign: every cell of the configured matrix, at
/// every offered rate ([`Trials::Rates`]) or over a binary search for
/// its max sustainable rate ([`Trials::Search`]), one fresh broker per
/// trial.
///
/// # Errors
///
/// Fails on an invalid or failover configuration, on broker/topic
/// errors and on sender-thread failures; an *engine* failure marks the
/// trial overloaded instead of aborting the sweep (an engine that falls
/// over under offered load is the overload signal, not an
/// infrastructure error).
pub fn run_latency(config: &CampaignConfig) -> Result<LatencyReport, BenchError> {
    config.validate()?;
    let mut cells = Vec::new();
    for setup in config.setups() {
        let trials = match &config.trials {
            Trials::Rates(rates) => {
                let mut rates = rates.clone();
                rates.sort_by(f64::total_cmp);
                rates.dedup();
                rates
                    .into_iter()
                    .map(|rate| run_trial(config, setup, rate))
                    .collect::<Result<_, _>>()?
            }
            &Trials::Search {
                min_rate,
                max_rate,
                iters,
            } => crate::scaleout::search(config, setup, min_rate, max_rate, iters)?,
            Trials::Kills(_) => {
                return Err(BenchError::Config(
                    "a kill campaign runs through run_failover".into(),
                ))
            }
        };
        cells.push(LatencyCell { setup, trials });
    }
    Ok(LatencyReport {
        config: config.clone(),
        cells,
    })
}

/// Head start the schedule gives the engine to begin tailing before the
/// first record is due.
const SCHEDULE_LEAD_MICROS: i64 = 5_000;

/// One trial: fresh broker, open-loop sender thread, follow-mode engine
/// on the calling thread, sink-side latency measurement. A scale-out
/// probe partitions the input topic to the cell's parallelism, so the
/// sender key-hash-routes records through the shared producer
/// partitioner and the engines' consumer groups split the partitions.
pub(crate) fn run_trial(
    config: &CampaignConfig,
    setup: Setup,
    rate: f64,
) -> Result<LatencyTrial, BenchError> {
    let mut trial_span = obs::span("latency.trial");
    trial_span.field("setup", setup.to_string());
    trial_span.field("rate", format!("{rate}"));
    let partitions = match config.trials {
        Trials::Search { .. } => setup.parallelism as u32,
        _ => 1,
    };
    // The batch campaign's simulated broker RTT and dstream batch size.
    let defaults = BenchConfig::default();
    let broker = Broker::new();
    broker.set_request_latency_micros(defaults.request_latency_micros);
    broker.create_topic("input", TopicConfig::default().partitions(partitions))?;
    broker.create_topic("output", TopicConfig::default())?;

    let schedule = OpenLoopSchedule::new(broker.now_micros() + SCHEDULE_LEAD_MICROS, rate);
    let sender = {
        let broker = broker.clone();
        let records = config.records;
        let seed = config.seed;
        std::thread::Builder::new()
            .name("latency-open-loop-sender".into())
            .spawn(move || {
                send_open_loop_partitioned(&broker, "input", partitions, &schedule, records, seed)
            })
            .map_err(|e| BenchError::Broker(format!("sender thread spawn failed: {e}")))?
    };

    // The engine tails the input until it has consumed the trial's
    // records; an engine-side failure classifies the trial overloaded.
    let engine_result = execute_setup(
        &broker,
        setup,
        config.query,
        "input",
        "output",
        Some(config.records),
        defaults.dstream_batch_records,
    );
    let send_report = sender
        .join()
        .map_err(|_| BenchError::Broker("open-loop sender panicked".into()))??;

    let mut outputs = Vec::new();
    let produced = broker.latest_offset("output", 0)?;
    while (outputs.len() as u64) < produced {
        let chunk = broker.fetch("output", 0, outputs.len() as u64, 4_096)?;
        if chunk.is_empty() {
            break;
        }
        outputs.extend(chunk);
    }

    // Latency per output record: sink observation (LogAppendTime) minus
    // the event time carried in the payload prefix. The local histogram
    // is the measurement; the global instrument is optional telemetry
    // behind the runtime gate.
    let histogram = obs::Histogram::new();
    let global = if obs::enabled() {
        Some(obs::histogram("latency.e2e_micros"))
    } else {
        None
    };
    let warmup_cutoff = schedule.event_time_micros(config.warmup_records.min(config.records));
    let mut first_out = i64::MAX;
    let mut last_out = i64::MIN;
    for stored in &outputs {
        let out_micros = stored.timestamp.as_micros();
        first_out = first_out.min(out_micros);
        last_out = last_out.max(out_micros);
        let Some(event) = parse_event_time_micros(&stored.record.value) else {
            continue;
        };
        if event < warmup_cutoff {
            continue;
        }
        let latency = (out_micros - event).max(0) as u64;
        histogram.record(latency);
        if let Some(h) = &global {
            h.record(latency);
        }
    }
    let snapshot = histogram.snapshot();

    let offered_span = (schedule.event_time_micros(config.records.saturating_sub(1))
        - schedule.start_micros())
    .max(1) as f64;
    let drain_ratio = if outputs.len() >= 2 {
        (last_out - first_out).max(0) as f64 / offered_span
    } else {
        0.0
    };
    let output_ok = engine_result.is_ok()
        && config
            .query
            .expected_outputs(config.records)
            .is_none_or(|expected| expected == outputs.len() as u64);
    let sustainable = output_ok
        && snapshot.count > 0
        && snapshot.p99() <= P99_BOUND_MICROS
        && drain_ratio <= CATCHUP_RATIO;

    Ok(LatencyTrial {
        offered_rate: rate,
        output_records: outputs.len() as u64,
        measured: snapshot.count,
        p50_micros: snapshot.p50(),
        p95_micros: snapshot.p95(),
        p99_micros: snapshot.p99(),
        p999_micros: snapshot.p999(),
        max_micros: snapshot.max,
        mean_micros: snapshot.mean(),
        drain_ratio,
        max_send_lag_micros: send_report.max_send_lag_micros,
        output_ok,
        sustainable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::Query;
    use crate::setup::{Api, System};

    /// The latency defaults with `rates` offered to every cell at
    /// parallelism 1.
    fn sweep(records: u64, warmup_records: u64, rates: Vec<f64>) -> CampaignConfig {
        CampaignConfig {
            records,
            warmup_records,
            parallelisms: vec![1],
            trials: Trials::Rates(rates),
            ..CampaignConfig::latency()
        }
    }

    fn trial(rate: f64, sustainable: bool) -> LatencyTrial {
        LatencyTrial {
            offered_rate: rate,
            output_records: 10,
            measured: 10,
            p50_micros: 100,
            p95_micros: 200,
            p99_micros: 300,
            p999_micros: 400,
            max_micros: 500,
            mean_micros: 150.0,
            drain_ratio: 1.0,
            max_send_lag_micros: 42,
            output_ok: true,
            sustainable,
        }
    }

    #[test]
    fn highest_sustainable_picks_the_top_rate() {
        let cell = LatencyCell {
            setup: Setup {
                system: System::Rill,
                api: Api::Native,
                parallelism: 1,
            },
            trials: vec![
                trial(500.0, true),
                trial(2_000.0, true),
                trial(8_000.0, false),
            ],
        };
        assert_eq!(
            cell.highest_sustainable().map(|t| t.offered_rate),
            Some(2_000.0)
        );
        let overloaded = LatencyCell {
            trials: vec![trial(500.0, false)],
            ..cell
        };
        assert!(overloaded.highest_sustainable().is_none());
    }

    #[test]
    fn json_schema_has_percentiles_and_boolean_flag() {
        let report = LatencyReport {
            config: sweep(100, 10, vec![500.0, 8_000.0]),
            cells: vec![LatencyCell {
                setup: Setup {
                    system: System::Apx,
                    api: Api::Beam,
                    parallelism: 2,
                },
                trials: vec![trial(500.0, true), trial(8_000.0, false)],
            }],
        };
        let json = report.to_json();
        for key in [
            "\"query\":\"identity\"",
            "\"system\":\"apx\"",
            "\"sdk\":\"beam\"",
            "\"parallelism\":2",
            "\"highest_sustainable_rate\":500",
            "\"p50_micros\":100",
            "\"p95_micros\":200",
            "\"p99_micros\":300",
            "\"p999_micros\":400",
            "\"sustainable\":true",
            "\"sustainable\":false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn empty_rates_is_an_error() {
        assert!(run_latency(&sweep(100, 0, vec![])).is_err());
        assert!(run_latency(&sweep(100, 0, vec![f64::NAN, -5.0])).is_err());
    }

    #[test]
    fn latency_sweep_smoke() {
        // A tiny end-to-end sweep: all six cells at one comfortable
        // rate. Asserts structure and measurement sanity, not the
        // (machine-dependent) sustainability verdicts.
        let report = run_latency(&sweep(240, 40, vec![4_000.0])).unwrap();
        assert_eq!(report.cells.len(), 6);
        for cell in &report.cells {
            assert_eq!(cell.trials.len(), 1, "{}", cell.setup);
            let t = &cell.trials[0];
            assert!(t.output_ok, "{}: {t:?}", cell.setup);
            assert_eq!(t.output_records, 240, "{}", cell.setup);
            assert!(t.measured > 0, "{}", cell.setup);
            assert!(
                t.p50_micros <= t.p95_micros
                    && t.p95_micros <= t.p99_micros
                    && t.p99_micros <= t.p999_micros
                    && t.p999_micros <= t.max_micros,
                "{}: {t:?}",
                cell.setup
            );
            assert!(t.max_send_lag_micros >= 0, "{}", cell.setup);
        }
    }

    #[test]
    fn grep_trial_measures_sparse_outputs() {
        // Grep keeps ~0.3 % of records: the latency path must survive
        // near-empty output topics.
        let config = CampaignConfig {
            query: Query::Grep,
            ..sweep(400, 0, vec![8_000.0])
        };
        let report = run_latency(&config).unwrap();
        let cell = report
            .cells
            .iter()
            .find(|c| c.setup.system == System::Rill && c.setup.api == Api::Native)
            .unwrap();
        let t = &cell.trials[0];
        assert!(t.output_ok, "{t:?}");
        assert_eq!(
            t.output_records,
            crate::data::expected_grep_hits(400),
            "{t:?}"
        );
        assert_eq!(t.measured, t.output_records);
    }
}
