//! Shared helpers for the benchmark binaries and Criterion benches.

use logbus::{Broker, TopicConfig};
use streambench_core::{execute_setup, send_workload, BenchConfig, Query, SenderConfig, Setup};

/// A broker preloaded with `records` workload records in `input`.
///
/// # Panics
///
/// Panics on broker failures (benchmark setup must not silently degrade).
pub fn loaded_broker(records: u64, latency_micros: u64) -> Broker {
    let broker = Broker::new();
    broker.set_request_latency_micros(latency_micros);
    broker
        .create_topic("input", TopicConfig::default())
        .expect("create input topic");
    send_workload(
        &broker,
        "input",
        &SenderConfig {
            records,
            ..SenderConfig::default()
        },
    )
    .expect("load workload");
    broker
}

/// Executes one setup against a fresh output topic and returns the topic
/// name. Used by Criterion benches, which measure the wall time of this
/// call.
///
/// # Panics
///
/// Panics on execution failures.
pub fn execute_setup_once(broker: &Broker, query: Query, setup: Setup, tag: u64) -> String {
    let output = format!("bench-out-{setup}-{tag}");
    broker
        .create_topic(&output, TopicConfig::default())
        .expect("create output topic");
    let batch = BenchConfig::default().dstream_batch_records;
    execute_setup(broker, setup, query, "input", &output, None, batch).expect("execute setup");
    output
}
