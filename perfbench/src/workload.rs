//! The three workloads, their set-up, and the interleaved measuring loop.
//!
//! * `batch-identity` and `batch-grep` follow the paper's method: the
//!   input topic is preloaded, then each cell runs to completion against
//!   a fresh output topic and is timed by the output topic's
//!   `LogAppendTime` span.
//! * `openloop-sample` offers records on a fixed schedule from a sender
//!   thread while the cell tails the input topic; each output record is
//!   timed from its scheduled send time.
//!
//! Every cell execution is checked against `Query::apply` over the same
//! seeded input (count and ordered digest); a mismatch is a failed
//! operation and contributes no timing.

use crate::cells::{self, label, Digest, EngineRun, LayerCounters, CELLS};
use crate::stats::{exact_median, exact_quantile};
use crate::trace::Trace;
use bytes::Bytes;
use logbus::{Broker, BusHandle, Partitioner, Producer, ProducerConfig, Record, TopicConfig};
use std::time::{Duration, Instant};
use streambench_core::{
    calculator, parse_event_time_micros, send_open_loop, BenchConfig, OpenLoopSchedule, Query,
    QueryLogGenerator, Setup,
};

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Preloaded input, each cell run to completion.
    Batch,
    /// Open-loop offered load at `rate` records per second.
    OpenLoop { rate: f64 },
}

impl Kind {
    /// The per-execution figure `sf` compares: the span on batch
    /// workloads, the trial's median latency in the open loop.
    pub fn headline(self, rep: &RepOutcome) -> f64 {
        match self {
            Kind::Batch => rep.exec_s,
            Kind::OpenLoop { .. } => rep.p50_ms,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub query: Query,
    pub kind: Kind,
    /// Input records: the preloaded topic, or one open-loop trial.
    pub records: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "batch-identity",
        query: Query::Identity,
        kind: Kind::Batch,
        records: 100_000,
    },
    Workload {
        name: "batch-grep",
        query: Query::Grep,
        kind: Kind::Batch,
        records: 250_000,
    },
    Workload {
        name: "openloop-sample",
        query: Query::Sample,
        kind: Kind::OpenLoop { rate: 20_000.0 },
        records: 10_000,
    },
];

/// Set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more (up to `MAX_SETUPS`) while their total stays
/// under `SETUP_BUDGET`, so a short set-up is repeated more often.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);
/// Share of each open-loop trial excluded from latency as warm-up.
const OPENLOOP_WARMUP_DIVISOR: u64 = 10;
/// Head start the open-loop schedule gives the cell before the first
/// record is due.
const SCHEDULE_LEAD_MICROS: i64 = 5_000;

/// The seeded input, preloaded into the `input` topic of `broker`.
pub struct Prepared {
    pub broker: Broker,
    pub payloads: Vec<Bytes>,
    /// `Query::apply` over `payloads` (batch workloads).
    pub reference: Digest,
    /// Median set-up wall time: broker and topic creation, generation,
    /// preload and reference.
    pub setup_s: f64,
    /// Every set-up's wall time, in run order.
    pub setups_s: Vec<f64>,
    /// Median time in `QueryLogGenerator`.
    pub generate_s: f64,
    /// Median time in `Producer::send_batch`.
    pub preload_s: f64,
}

fn new_broker() -> Broker {
    let broker = Broker::new();
    broker.set_request_latency_micros(BenchConfig::default().request_latency_micros);
    broker
}

/// Sends `payloads` into `topic` partition 0 through a batched producer.
pub fn send_batched(broker: &Broker, topic: &str, payloads: &[Bytes]) -> logbus::Result<()> {
    let mut producer = Producer::with_config(
        BusHandle::from(broker),
        ProducerConfig {
            batch_records: 512,
            partitioner: Partitioner::Fixed(0),
            ..ProducerConfig::default()
        },
    );
    let mut chunk = Vec::with_capacity(512);
    for group in payloads.chunks(512) {
        chunk.extend(group.iter().cloned().map(Record::from_value));
        producer.send_batch(topic, &mut chunk)?;
    }
    producer.close()
}

/// Builds the broker and input several times and keeps the last.
pub fn prepare(workload: &Workload, seed: u64, trace: &Trace) -> Result<Prepared, String> {
    let mut totals = Vec::new();
    let mut generates = Vec::new();
    let mut preloads = Vec::new();
    let mut last = None;
    let begun = Instant::now();
    while totals.len() < MIN_SETUPS || (totals.len() < MAX_SETUPS && begun.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let _span = trace.span("setup", &[]);
        let started = Instant::now();
        let broker = new_broker();
        broker
            .create_topic("input", TopicConfig::default())
            .map_err(|e| e.to_string())?;
        let generated = Instant::now();
        let payloads = {
            let _span = trace.span("core.sender.generate", &[]);
            QueryLogGenerator::new(seed).payloads(workload.records)
        };
        generates.push(generated.elapsed().as_secs_f64());
        let preloaded = Instant::now();
        {
            let _span = trace.span("core.sender.preload", &[]);
            send_batched(&broker, "input", &payloads).map_err(|e| e.to_string())?;
        }
        preloads.push(preloaded.elapsed().as_secs_f64());
        let reference = {
            let _span = trace.span("core.queries.reference", &[]);
            Digest::reference(workload.query, &payloads)
        };
        totals.push(started.elapsed().as_secs_f64());
        last = Some((broker, payloads, reference));
    }
    let (broker, payloads, reference) = last.expect("at least one set-up ran");
    Ok(Prepared {
        broker,
        payloads,
        reference,
        setup_s: crate::stats::median(&totals),
        setups_s: totals,
        generate_s: crate::stats::median(&generates),
        preload_s: crate::stats::median(&preloads),
    })
}

/// One checked cell execution.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// The output topic's first-to-last `LogAppendTime` span.
    pub exec_s: f64,
    /// Exact median and 99th-percentile latency of this execution.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Per-record latency samples in microseconds, kept for pooling
    /// (open-loop trials only).
    pub latencies_us: Vec<u64>,
    pub engine: EngineRun,
    /// Time in `calculator::measure`.
    pub measure_s: f64,
    /// Records in the output topic.
    pub output_records: u64,
    /// Layer counters (traced executions only).
    pub counters: Option<LayerCounters>,
    /// Open-loop sender lateness (open-loop trials only).
    pub send_lag_us: Option<i64>,
}

/// Exact median and 99th percentile of `samples` (µs), in milliseconds.
fn percentiles_ms(samples: &mut [u64]) -> (f64, f64) {
    (
        exact_median(samples).map_or(f64::NAN, |us| us / 1e3),
        exact_quantile(samples, 0.99).map_or(f64::NAN, |us| us as f64 / 1e3),
    )
}

/// Measures and checks `topic` after a run: the calculator's span, then
/// the records read back and compared with `expected`.
fn evaluate(
    broker: &Broker,
    topic: &str,
    expected: Digest,
    trace: &Trace,
) -> Result<(f64, f64, Vec<logbus::StoredRecord>), String> {
    let started = Instant::now();
    let measurement = {
        let _span = trace.span("core.calculator.measure", &[]);
        calculator::measure(broker, topic).map_err(|e| e.to_string())?
    };
    let measure_s = started.elapsed().as_secs_f64();
    let records = {
        let _span = trace.span("logbus.read_output", &[]);
        cells::read_topic(broker, topic).map_err(|e| e.to_string())?
    };
    let actual = {
        let _span = trace.span("core.queries.check", &[]);
        Digest::of_records(&records)
    };
    if actual != expected || measurement.output_records != expected.count {
        return Err(format!(
            "output of {topic} differs from the reference: {} records (digest {:016x}), expected {} (digest {:016x})",
            actual.count, actual.hash, expected.count, expected.hash
        ));
    }
    Ok((measurement.execution_seconds, measure_s, records))
}

/// One batch execution of `cell` over `input`, against a fresh output
/// topic that is deleted afterwards.
pub fn batch_rep(
    broker: &Broker,
    input: &str,
    expected: Digest,
    query: Query,
    cell: Setup,
    tag: &str,
    trace: &Trace,
) -> Result<RepOutcome, String> {
    let topic = format!("out-{}-{tag}", label(cell));
    {
        let _span = trace.span("logbus.create_topic", &[]);
        broker
            .create_topic(&topic, TopicConfig::default())
            .map_err(|e| e.to_string())?;
    }
    let result = (|| {
        if trace.active() {
            obs::global().reset();
        }
        let start_us = broker.now_micros();
        let engine = cells::run_cell(broker, cell, query, input, &topic, None, trace)?;
        let counters = trace.active().then(LayerCounters::read);
        let (exec_s, measure_s, records) = evaluate(broker, &topic, expected, trace)?;
        // All input is available when the cell starts, so a record's
        // latency is its append time minus the cell's start.
        let mut latencies_us: Vec<u64> = records
            .iter()
            .map(|r| (r.timestamp.as_micros() - start_us).max(0) as u64)
            .collect();
        let (p50_ms, p99_ms) = percentiles_ms(&mut latencies_us);
        Ok(RepOutcome {
            exec_s,
            p50_ms,
            p99_ms,
            latencies_us: Vec::new(),
            engine,
            measure_s,
            output_records: records.len() as u64,
            counters,
            send_lag_us: None,
        })
    })();
    let _span = trace.span("logbus.delete_topic", &[]);
    broker.delete_topic(&topic).map_err(|e| e.to_string())?;
    result
}

/// `"<event micros>\t<payload>"`, the stamp `send_open_loop` puts on
/// each record.
fn stamped(event_micros: i64, payload: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(21 + payload.len());
    buf.extend_from_slice(event_micros.to_string().as_bytes());
    buf.push(b'\t');
    buf.extend_from_slice(payload);
    Bytes::from(buf)
}

/// One open-loop trial of `cell` on a fresh broker: a sender thread
/// offers `payloads` at `rate` while the cell's follow-mode variant
/// tails the input.
pub fn openloop_trial(
    payloads: &[Bytes],
    seed: u64,
    rate: f64,
    query: Query,
    cell: Setup,
    trace: &Trace,
) -> Result<RepOutcome, String> {
    let records = payloads.len() as u64;
    let broker = new_broker();
    for topic in ["input", "output"] {
        broker
            .create_topic(topic, TopicConfig::default())
            .map_err(|e| e.to_string())?;
    }
    if trace.active() {
        obs::global().reset();
    }
    let schedule = OpenLoopSchedule::new(broker.now_micros() + SCHEDULE_LEAD_MICROS, rate);
    let parent = trace.current();
    let (engine, sent) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let _span = trace.span_under(parent, "core.sender.open_loop");
            send_open_loop(&broker, "input", &schedule, records, seed)
        });
        let engine = cells::run_cell(
            &broker,
            cell,
            query,
            "input",
            "output",
            Some(records),
            trace,
        );
        let sent = match sender.join() {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(_) => Err("open-loop sender panicked".to_string()),
        };
        (engine, sent)
    });
    let engine = engine?;
    let sent = sent?;
    let counters = trace.active().then(LayerCounters::read);
    let expected = Digest::reference(
        query,
        &payloads
            .iter()
            .enumerate()
            .map(|(i, p)| stamped(schedule.event_time_micros(i as u64), p))
            .collect::<Vec<_>>(),
    );
    let (exec_s, measure_s, records_out) = evaluate(&broker, "output", expected, trace)?;
    let cutoff = schedule.event_time_micros(records / OPENLOOP_WARMUP_DIVISOR);
    let mut latencies_us: Vec<u64> = records_out
        .iter()
        .filter_map(|r| {
            let event = parse_event_time_micros(&r.record.value)?;
            (event >= cutoff).then(|| (r.timestamp.as_micros() - event).max(0) as u64)
        })
        .collect();
    let (p50_ms, p99_ms) = percentiles_ms(&mut latencies_us);
    Ok(RepOutcome {
        exec_s,
        p50_ms,
        p99_ms,
        latencies_us,
        engine,
        measure_s,
        output_records: records_out.len() as u64,
        counters,
        send_lag_us: Some(sent.max_send_lag_micros),
    })
}

/// The checked executions of one cell.
#[derive(Debug, Default)]
pub struct CellRuns {
    pub untraced: Vec<RepOutcome>,
    pub traced: Vec<RepOutcome>,
}

/// Counts of checked executions.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Runs the cells round-robin for about `budget`: each cell keeps
/// repeating until it has used its equal share of the budget and has
/// been attempted at least `min_reps` times, so short cells are repeated
/// more often than long ones, and every cell's executions are spread
/// over the whole run. With `alternate`, passes alternate between
/// untraced and traced, and `min_reps` counts each kind. No execution
/// starts after `deadline`.
pub fn measure_loop(
    budget: Duration,
    min_reps: usize,
    deadline: Instant,
    alternate: bool,
    trace: &Trace,
    tally: &mut Tally,
    mut rep: impl FnMut(Setup, u32) -> Result<RepOutcome, String>,
) -> Vec<CellRuns> {
    let share = budget / CELLS.len() as u32;
    let min = if alternate { 2 * min_reps } else { min_reps };
    let mut spent = [Duration::ZERO; CELLS.len()];
    let mut attempts = [0; CELLS.len()];
    let mut runs: Vec<CellRuns> = CELLS.iter().map(|_| CellRuns::default()).collect();
    for pass in 0u32.. {
        let traced = alternate && pass % 2 == 1;
        let mut ran = false;
        for (i, &cell) in CELLS.iter().enumerate() {
            if (spent[i] >= share && attempts[i] >= min) || Instant::now() >= deadline {
                continue;
            }
            trace.set_active(traced);
            let started = Instant::now();
            let result = {
                let _span =
                    trace.span("cell", &[("cell", label(cell)), ("pass", pass.to_string())]);
                rep(cell, pass)
            };
            trace.set_active(false);
            spent[i] += started.elapsed();
            attempts[i] += 1;
            ran = true;
            if let Some(outcome) = tally.record(&label(cell), result) {
                if traced {
                    runs[i].traced.push(outcome);
                } else {
                    runs[i].untraced.push(outcome);
                }
            }
        }
        if !ran {
            break;
        }
    }
    runs
}
