//! The six engine × SDK cells at parallelism 1, run through the public
//! entry points of `streambench-core` (`queries::native_*` and
//! `queries::beam_pipeline*` with a `beamline` runner), plus the output
//! read-back, reference digest and per-cell `obs` counters.

use crate::trace::Trace;
use beamline::runners::{ApxRunner, DStreamRunner, RillRunner};
use beamline::{EngineReport, PipelineRunner};
use bytes::Bytes;
use logbus::{Broker, StoredRecord};
use std::time::{Duration, Instant};
use streambench_core::{queries, Api, BenchConfig, Query, Setup, System};

/// The cells in report order: the three native programs, then the three
/// abstraction-layer pipelines.
pub const CELLS: [Setup; 6] = [
    cell(System::Rill, Api::Native),
    cell(System::DStream, Api::Native),
    cell(System::Apx, Api::Native),
    cell(System::Rill, Api::Beam),
    cell(System::DStream, Api::Beam),
    cell(System::Apx, Api::Beam),
];

const fn cell(system: System, api: Api) -> Setup {
    Setup {
        system,
        api,
        parallelism: 1,
    }
}

/// `rill-native`, `apx-beam`, ...
pub fn label(cell: Setup) -> String {
    format!("{}-{}", cell.system, cell.api)
}

/// What one engine run reports besides its output topic.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineRun {
    /// Wall time of the `native_*` call or `PipelineRunner::run`.
    pub run: Duration,
    /// Micro-batches executed (`dstream` cells only).
    pub batches: Option<u64>,
    /// YARN containers occupied (`apx` cells only).
    pub containers: Option<u64>,
}

/// Runs `cell` from `input` to `output`. `follow = Some(n)` runs the
/// cell's `*_following` variant, which tails `input` until `n` records
/// were consumed.
pub fn run_cell(
    broker: &Broker,
    cell: Setup,
    query: Query,
    input: &str,
    output: &str,
    follow: Option<u64>,
    trace: &Trace,
) -> Result<EngineRun, String> {
    let config = BenchConfig::default();
    let p = cell.parallelism;
    let mut engine = EngineRun::default();
    match (cell.system, cell.api) {
        (System::Rill, Api::Native) => {
            let _span = trace.span("rill.native_run", &[]);
            let started = Instant::now();
            match follow {
                None => queries::native_rill(broker, query, input, output, p),
                Some(n) => queries::native_rill_following(broker, query, input, output, p, n),
            }
            .map_err(|e| e.to_string())?;
            engine.run = started.elapsed();
        }
        (System::DStream, Api::Native) => {
            let _span = trace.span("dstream.native_run", &[]);
            let batch = config.dstream_batch_records;
            let started = Instant::now();
            let report = match follow {
                None => queries::native_dstream(broker, query, input, output, p, batch),
                Some(n) => {
                    queries::native_dstream_following(broker, query, input, output, p, batch, n)
                }
            }
            .map_err(|e| e.to_string())?;
            engine.run = started.elapsed();
            engine.batches = Some(report.batches);
        }
        (System::Apx, Api::Native) => {
            let mut rm = {
                let _span = trace.span("yarnsim.cluster", &[]);
                streambench_core::fresh_yarn_cluster_for(p)
            };
            let _span = trace.span("apx.native_run", &[]);
            let vcores = p as u32;
            let started = Instant::now();
            let app = match follow {
                None => queries::native_apx(broker, query, input, output, vcores, &mut rm),
                Some(n) => {
                    queries::native_apx_following(broker, query, input, output, vcores, &mut rm, n)
                }
            }
            .map_err(|e| e.to_string())?;
            engine.run = started.elapsed();
            engine.containers = Some(app.containers_used as u64);
        }
        (system, Api::Beam) => {
            let pipeline = {
                let _span = trace.span("beamline.build", &[]);
                match follow {
                    None => queries::beam_pipeline(broker, query, input, output),
                    Some(n) => queries::beam_pipeline_following(broker, query, input, output, n),
                }
            };
            let runner: Box<dyn PipelineRunner> = match system {
                System::Rill => Box::new(
                    RillRunner::new()
                        .with_parallelism(p)
                        .with_cluster(rill::ClusterSpec::local_for(p)),
                ),
                System::DStream => Box::new(
                    DStreamRunner::new()
                        .with_parallelism(p)
                        .with_batch_records(config.dstream_batch_records),
                ),
                System::Apx => Box::new(
                    ApxRunner::new()
                        .with_vcores(p as u32)
                        .with_window_size(config.apx_window_size),
                ),
            };
            let _span = trace.span("beamline.run", &[("runner", runner.name().to_string())]);
            let started = Instant::now();
            let result = runner.run(&pipeline).map_err(|e| e.to_string())?;
            engine.run = started.elapsed();
            match result.engine {
                EngineReport::DStream(report) => engine.batches = Some(report.batches),
                EngineReport::Apx(app) => engine.containers = Some(app.containers_used as u64),
                EngineReport::Rill(_) | EngineReport::Direct => {}
            }
        }
    }
    Ok(engine)
}

/// Reads a whole single-partition topic through a cached partition
/// reader.
pub fn read_topic(broker: &Broker, topic: &str) -> logbus::Result<Vec<StoredRecord>> {
    let reader = broker.partition_reader(topic, 0)?;
    let end = reader.latest_offset()?;
    let mut out = Vec::with_capacity(end as usize);
    while (out.len() as u64) < end {
        if reader.fetch_into(out.len() as u64, 4_096, &mut out)? == 0 {
            break;
        }
    }
    Ok(out)
}

/// Count and order-sensitive FNV-1a digest of a record sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

impl Digest {
    pub fn new() -> Self {
        Digest {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    pub fn push(&mut self, value: &[u8]) {
        self.count += 1;
        let len = (value.len() as u64).to_le_bytes();
        for &b in len.iter().chain(value) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The reference: `Query::apply` over `inputs`, in input order.
    pub fn reference<'a>(query: Query, inputs: impl IntoIterator<Item = &'a Bytes>) -> Self {
        let mut digest = Digest::new();
        for input in inputs {
            if let Some(out) = query.apply(input) {
                digest.push(&out);
            }
        }
        digest
    }

    pub fn of_records(records: &[StoredRecord]) -> Self {
        let mut digest = Digest::new();
        for record in records {
            digest.push(&record.record.value);
        }
        digest
    }
}

/// Per-cell readings of the layers' own `obs` instruments, taken after a
/// traced run that started from a reset registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    /// Produce requests (`logbus.produce.micros` observations).
    pub produce_requests: u64,
    /// Fetch requests (`logbus.fetch.micros` observations).
    pub fetch_requests: u64,
    /// Appends that found the partition append lock held.
    pub append_contended: u64,
    /// Sum of the engines' native `*.op.*.busy_micros` counters.
    pub op_busy_micros: u64,
    /// Sum of the abstraction layer's per-transform `busy_micros`.
    pub pardo_busy_micros: u64,
    /// Sum of the abstraction layer's per-transform `records_in`: one
    /// per element per boundary crossed.
    pub crossings: u64,
}

impl LayerCounters {
    /// Reads the global registry. Abstraction-layer transforms report as
    /// `beam.<runner>.<transform>.*`, or on `apx` as translated operators
    /// `apx.op.<transform>#<i>.*`; every other `<engine>.op.*` counter is
    /// a native operator.
    pub fn read() -> Self {
        let snapshot = obs::global().registry().snapshot();
        let requests = |name: &str| snapshot.histograms.get(name).map_or(0, |h| h.count);
        let mut counters = LayerCounters {
            produce_requests: requests("logbus.produce.micros"),
            fetch_requests: requests("logbus.fetch.micros"),
            append_contended: snapshot
                .counters
                .get("logbus.leader.append_contended")
                .copied()
                .unwrap_or(0),
            ..LayerCounters::default()
        };
        for (name, &value) in &snapshot.counters {
            let beam =
                name.starts_with("beam.") || (name.starts_with("apx.op.") && name.contains('#'));
            let native = ["rill.op.", "dstream.op.", "apx.op."]
                .iter()
                .any(|prefix| name.starts_with(prefix));
            if name.ends_with(".busy_micros") {
                if beam {
                    counters.pardo_busy_micros += value;
                } else if native {
                    counters.op_busy_micros += value;
                }
            } else if beam && name.ends_with(".records_in") {
                counters.crossings += value;
            }
        }
        counters
    }
}
