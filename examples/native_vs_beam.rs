//! Native vs. abstraction layer: run the grep query both ways on each
//! engine and print the measured slowdown — the paper's core experiment
//! in miniature.
//!
//! ```sh
//! cargo run --release --example native_vs_beam
//! ```

use logbus::{Broker, TopicConfig};
use std::error::Error;
use streambench_core::{
    beam_pipeline, fresh_yarn_cluster, measure, native_apx, native_dstream, native_rill,
    send_workload, Query, SenderConfig,
};

fn main() -> Result<(), Box<dyn Error>> {
    let records = 20_000;
    let query = Query::Grep;

    let broker = Broker::new();
    // Simulate the remote broker cluster's network round trip.
    broker.set_request_latency_micros(150);
    broker.create_topic("input", TopicConfig::default())?;
    send_workload(
        &broker,
        "input",
        &SenderConfig {
            records,
            ..SenderConfig::default()
        },
    )?;
    println!(
        "loaded {records} records; running `{query}` natively and via the abstraction layer\n"
    );

    let fresh_topic = |name: &str| -> Result<String, Box<dyn Error>> {
        let topic = format!("out-{name}");
        broker.create_topic(&topic, TopicConfig::default())?;
        Ok(topic)
    };

    let mut results: Vec<(&str, f64, f64)> = Vec::new();

    // rill / Flink analog.
    let native = fresh_topic("rill-native")?;
    native_rill(&broker, query, "input", &native, 1)?;
    let t_native = measure(&broker, &native)?.execution_seconds;
    let beam = fresh_topic("rill-beam")?;
    beamline::PipelineRunner::run(
        &beamline::runners::RillRunner::new(),
        &beam_pipeline(&broker, query, "input", &beam),
    )?;
    results.push((
        "Flink analog (rill)",
        t_native,
        measure(&broker, &beam)?.execution_seconds,
    ));

    // dstream / Spark analog.
    let native = fresh_topic("dstream-native")?;
    native_dstream(&broker, query, "input", &native, 1, 10_000)?;
    let t_native = measure(&broker, &native)?.execution_seconds;
    let beam = fresh_topic("dstream-beam")?;
    beamline::PipelineRunner::run(
        &beamline::runners::DStreamRunner::new(),
        &beam_pipeline(&broker, query, "input", &beam),
    )?;
    results.push((
        "Spark analog (dstream)",
        t_native,
        measure(&broker, &beam)?.execution_seconds,
    ));

    // apx / Apex analog.
    let native = fresh_topic("apx-native")?;
    let mut rm = fresh_yarn_cluster();
    native_apx(&broker, query, "input", &native, 1, &mut rm)?;
    let t_native = measure(&broker, &native)?.execution_seconds;
    let beam = fresh_topic("apx-beam")?;
    beamline::PipelineRunner::run(
        &beamline::runners::ApxRunner::new(),
        &beam_pipeline(&broker, query, "input", &beam),
    )?;
    results.push((
        "Apex analog (apx)",
        t_native,
        measure(&broker, &beam)?.execution_seconds,
    ));

    println!(
        "{:<24} {:>10} {:>10} {:>10}",
        "system", "native", "beam", "slowdown"
    );
    for (label, native, beam) in results {
        println!(
            "{label:<24} {native:>9.3}s {beam:>9.3}s {:>9.1}x",
            if native > 0.0 {
                beam / native
            } else {
                f64::NAN
            }
        );
    }
    Ok(())
}
