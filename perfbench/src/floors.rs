//! Per-layer floors: each layer's cost measured alone, through its own
//! public entry point, on the run's input. Run once per traced run.

use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{send_batched, Prepared};
use beamline::{BytesCoder, Coder};
use bytes::Bytes;
use logbus::{Record, TopicConfig};
use std::hint::black_box;
use std::time::Instant;
use streambench_core::{queries, send_open_loop, OpenLoopSchedule, Query};

const REPS: usize = 3;
/// Records per fetch, as the engines' broker sources request.
const FETCH_RECORDS: usize = 2_048;
/// Single-record produce round trips timed for `logbus.request_us`.
const REQUESTS: usize = 500;
/// Records per standalone open-loop send for `sender.lag_ms`.
const LAG_RECORDS: u64 = 10_000;
/// Records encoded and decoded per `beamline.coder_ns` pass.
const CODER_RECORDS: usize = 100_000;
/// Calls timed for the sub-millisecond set-up floors.
const SMALL_CALLS: usize = 50;

#[derive(Debug, Clone, Copy, Default)]
pub struct Floors {
    /// The input drained through `partition_reader` + `fetch_into`.
    pub fetch_floor_s: f64,
    /// The output volume sent through a batched `Producer`.
    pub append_floor_s: f64,
    /// One `Broker::produce` round trip.
    pub request_us: f64,
    /// `BytesCoder::encode_into` + `decode`, per record.
    pub coder_ns: f64,
    /// Worst open-loop send lag of the generator alone, median of sends.
    pub lag_ms: f64,
    /// `fresh_yarn_cluster`.
    pub yarn_cluster_s: f64,
    /// `beam_pipeline` construction.
    pub build_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Measures every floor; `output_volume` is the workload's output count.
/// With `lag_rate`, standalone open-loop sends at that rate give
/// `lag_ms`; otherwise it is left for the caller to fill in.
pub fn measure(
    prepared: &Prepared,
    query: Query,
    output_volume: u64,
    lag_rate: Option<f64>,
    seed: u64,
    trace: &Trace,
) -> Result<Floors, String> {
    let broker = &prepared.broker;
    let err = |e: logbus::Error| e.to_string();
    let mut fetch = Vec::new();
    let mut append = Vec::new();
    let mut coder = Vec::new();
    let mut lag = Vec::new();
    let outputs: Vec<Bytes> = prepared
        .payloads
        .iter()
        .cycle()
        .take(output_volume as usize)
        .cloned()
        .collect();
    for rep in 0..REPS {
        let span = trace.span("logbus.fetch_floor", &[]);
        let reader = broker.partition_reader("input", 0).map_err(err)?;
        let end = reader.latest_offset().map_err(err)?;
        let (drained, secs) = timed(|| -> logbus::Result<u64> {
            let mut buf = Vec::with_capacity(FETCH_RECORDS);
            let mut offset = 0;
            while offset < end {
                buf.clear();
                let got = reader.fetch_into(offset, FETCH_RECORDS, &mut buf)?;
                if got == 0 {
                    break;
                }
                offset += got as u64;
            }
            Ok(offset)
        });
        black_box(drained.map_err(err)?);
        fetch.push(secs);
        drop(span);

        let span = trace.span("logbus.append_floor", &[]);
        let topic = format!("floor-append-{rep}");
        broker
            .create_topic(&topic, TopicConfig::default())
            .map_err(err)?;
        let (sent, secs) = timed(|| send_batched(broker, &topic, &outputs));
        sent.map_err(err)?;
        broker.delete_topic(&topic).map_err(err)?;
        append.push(secs);
        drop(span);

        let span = trace.span("beamline.coder", &[]);
        let (_, secs) = timed(|| {
            let mut buf = Vec::new();
            for payload in prepared.payloads.iter().take(CODER_RECORDS) {
                BytesCoder.encode_into(payload, &mut buf);
                black_box(BytesCoder.decode(&mut buf.as_slice()).ok());
            }
        });
        coder.push(secs * 1e9 / prepared.payloads.len().clamp(1, CODER_RECORDS) as f64);
        drop(span);

        let Some(rate) = lag_rate else {
            continue;
        };
        let _span = trace.span("core.sender.open_loop", &[]);
        let topic = format!("floor-lag-{rep}");
        broker
            .create_topic(&topic, TopicConfig::default())
            .map_err(err)?;
        let schedule = OpenLoopSchedule::new(broker.now_micros() + 1_000, rate);
        let report = send_open_loop(broker, &topic, &schedule, LAG_RECORDS, seed).map_err(err)?;
        broker.delete_topic(&topic).map_err(err)?;
        lag.push(report.max_send_lag_micros as f64 / 1e3);
    }

    let requests = {
        let _span = trace.span("logbus.request", &[]);
        broker
            .create_topic("floor-request", TopicConfig::default())
            .map_err(err)?;
        let record = Record::from_value(prepared.payloads[0].clone());
        let mut micros = Vec::with_capacity(REQUESTS);
        for _ in 0..REQUESTS {
            let (result, secs) = timed(|| broker.produce("floor-request", 0, record.clone()));
            result.map_err(err)?;
            micros.push(secs * 1e6);
        }
        broker.delete_topic("floor-request").map_err(err)?;
        micros
    };

    let mut yarn = Vec::new();
    let mut build = Vec::new();
    for _ in 0..SMALL_CALLS {
        let span = trace.span("yarnsim.cluster", &[]);
        let (rm, secs) = timed(streambench_core::fresh_yarn_cluster);
        black_box(rm);
        yarn.push(secs);
        drop(span);
        let _span = trace.span("beamline.build", &[]);
        let (pipeline, secs) = timed(|| queries::beam_pipeline(broker, query, "input", "floor"));
        black_box(pipeline);
        build.push(secs);
    }

    Ok(Floors {
        fetch_floor_s: median(&fetch),
        append_floor_s: median(&append),
        request_us: median(&requests),
        coder_ns: median(&coder),
        lag_ms: median(&lag),
        yarn_cluster_s: median(&yarn),
        build_s: median(&build),
    })
}
