//! The benchmark orchestrator: runs the three-phase process of
//! paper §III-A over the full setup matrix.

use crate::calculator::{self, QueryMeasurement};
use crate::config::BenchConfig;
use crate::noise::NoiseModel;
use crate::queries::{self, Query};
use crate::sender::{send_workload, SenderConfig};
use crate::setup::{all_setups, Api, Setup, System};
use beamline::runners::{ApxRunner, DStreamRunner, RillRunner};
use beamline::PipelineRunner;
use logbus::{Broker, BusHandle, TopicConfig};
use std::fmt;

/// One completed benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The executed setup.
    pub setup: Setup,
    /// The executed query.
    pub query: Query,
    /// Zero-based run index.
    pub run: u32,
    /// Execution time from the output topic's `LogAppendTime` span, in
    /// seconds.
    pub execution_seconds: f64,
    /// Records in the output topic.
    pub output_records: u64,
    /// Attempts it took to obtain this measurement (1 = clean run;
    /// more means earlier attempts failed and were retried).
    pub attempts: u32,
}

/// A run that needed retries or was abandoned: the campaign's
/// outlier-with-cause record. Abandoned runs (`recovered == false`)
/// have no [`Measurement`] and are excluded from figures; the incident
/// is the report's explanation of the gap.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "an incident is the only surviving record of a degraded run; log or report it"]
pub struct RunIncident {
    /// The affected setup.
    pub setup: Setup,
    /// The affected query.
    pub query: Query,
    /// Zero-based run index.
    pub run: u32,
    /// Attempts executed, including the final one.
    pub attempts: u32,
    /// The last failure observed.
    pub error: String,
    /// Whether a later attempt produced a valid measurement.
    pub recovered: bool,
}

/// Measurements plus the incident log of a benchmark campaign.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use = "a report holds the campaign's measurements and incidents; dropping it loses both"]
pub struct QueryReport {
    /// Successful measurements, one per recovered-or-clean run.
    pub measurements: Vec<Measurement>,
    /// Runs that were retried or abandoned.
    pub incidents: Vec<RunIncident>,
}

/// Errors raised by the orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The campaign configuration has nothing valid to run.
    Config(String),
    /// Broker-side failure.
    Broker(String),
    /// Engine or runner failure.
    Execution {
        /// The failing setup.
        setup: String,
        /// The failure.
        message: String,
    },
    /// Result calculation failure.
    Calculator(String),
    /// The produced output is wrong (count mismatch against the query's
    /// expectation) — measurements of broken runs are worthless.
    WrongOutput {
        /// The failing setup.
        setup: String,
        /// Expected record count.
        expected: u64,
        /// Actual record count.
        actual: u64,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            BenchError::Broker(msg) => write!(f, "broker failure: {msg}"),
            BenchError::Execution { setup, message } => {
                write!(f, "execution of {setup} failed: {message}")
            }
            BenchError::Calculator(msg) => write!(f, "result calculation failed: {msg}"),
            BenchError::WrongOutput {
                setup,
                expected,
                actual,
            } => write!(
                f,
                "{setup} produced {actual} output records, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<logbus::Error> for BenchError {
    fn from(e: logbus::Error) -> Self {
        BenchError::Broker(e.to_string())
    }
}

/// Runs benchmark campaigns.
#[derive(Debug, Clone)]
pub struct BenchmarkRunner {
    config: BenchConfig,
}

impl BenchmarkRunner {
    /// Creates a runner from a configuration.
    pub fn new(config: BenchConfig) -> Self {
        BenchmarkRunner { config }
    }

    /// Benchmarks one query over the full setup matrix, `runs` times
    /// each: phase 1 loads the input topic once, phase 2 executes each
    /// setup against a fresh output topic (each run gets fresh engine
    /// instances — the paper restarts the systems per step), and phase 3
    /// computes the execution time from output-topic timestamps.
    ///
    /// Returns the measurements only; use
    /// [`BenchmarkRunner::run_query_report`] for the incident log.
    ///
    /// # Errors
    ///
    /// Fails on broker errors during load; a run that keeps failing
    /// after its retry budget becomes an incident, not an error.
    pub fn run_query(&self, query: Query) -> Result<Vec<Measurement>, BenchError> {
        self.run_query_report(query).map(|r| r.measurements)
    }

    /// [`BenchmarkRunner::run_query`] with the incident log attached.
    ///
    /// A failed run (engine error, broken measurement, or wrong output)
    /// is retried up to `1 + max_run_retries` attempts, each against a
    /// fresh output topic. A run that recovers is measured normally and
    /// logged as a recovered incident; a run that exhausts its budget is
    /// dropped from the measurements and logged as an abandoned
    /// incident — the campaign itself keeps going. When
    /// `config.fault_seed` is set, a seeded broker fault plan is
    /// installed for each processing phase (and removed before
    /// measuring), so load and measurement stay fault-free.
    ///
    /// # Errors
    ///
    /// Fails only on broker errors outside the processing phase
    /// (topic creation, workload load).
    pub fn run_query_report(&self, query: Query) -> Result<QueryReport, BenchError> {
        let mut query_span = obs::span("query");
        query_span.field("query", query.to_string());
        let broker = Broker::new();
        broker.set_request_latency_micros(self.config.request_latency_micros);
        // Replication factor one, one partition: paper §III-A1.
        broker.create_topic("input", TopicConfig::default())?;
        {
            let _send_span = obs::span("send");
            send_workload(
                &broker,
                "input",
                &SenderConfig {
                    records: self.config.records,
                    acks: self.config.sender_acks,
                    seed: self.config.seed,
                    ..SenderConfig::default()
                },
            )?;
        }

        let mut noise = self.config.noise_seed.map(NoiseModel::new);
        let mut report = QueryReport::default();
        for setup in all_setups(&self.config.parallelisms) {
            for run in 0..self.config.runs {
                self.run_once(&broker, query, setup, run, &mut noise, &mut report)?;
            }
        }
        Ok(report)
    }

    /// One (setup, run) cell: attempts until measured or out of budget.
    fn run_once(
        &self,
        broker: &Broker,
        query: Query,
        setup: Setup,
        run: u32,
        noise: &mut Option<NoiseModel>,
        report: &mut QueryReport,
    ) -> Result<(), BenchError> {
        let max_attempts = self.config.max_run_retries.saturating_add(1);
        let mut attempts = 0u32;
        let mut last_error: Option<BenchError> = None;
        while attempts < max_attempts {
            attempts += 1;
            // Fresh output topic per attempt: a failed attempt's partial
            // output can never leak into the measured one.
            let output_topic = if attempts == 1 {
                format!("output-{setup}-r{run}")
            } else {
                format!("output-{setup}-r{run}-a{attempts}")
            };
            broker.create_topic(&output_topic, TopicConfig::default())?;
            // Environment noise: this attempt's broker round trips are
            // genuinely slower by the drawn factor.
            if let Some(model) = noise.as_mut() {
                let factor = model.next_factor();
                broker.set_request_latency_micros(
                    (self.config.request_latency_micros as f64 * factor) as u64,
                );
            }
            let result = {
                let mut process_span = obs::span("process");
                process_span.field("setup", setup.to_string());
                process_span.field("run", run.to_string());
                process_span.field("attempt", attempts.to_string());
                if let Some(seed) = self.config.fault_seed {
                    // A distinct per-attempt stream keeps retries from
                    // replaying the exact fault schedule that failed.
                    broker.install_fault_plan(logbus::FaultPlan::seeded(
                        seed.wrapping_add(u64::from(attempts) - 1),
                    ));
                }
                let result = execute_setup(
                    broker,
                    setup,
                    query,
                    "input",
                    &output_topic,
                    None,
                    self.config.dstream_batch_records,
                );
                if self.config.fault_seed.is_some() {
                    broker.clear_fault_plan();
                }
                result
            };
            broker.set_request_latency_micros(self.config.request_latency_micros);
            let outcome = result
                .and_then(|()| self.measure(broker, setup, &output_topic))
                .and_then(|m| self.check_output(setup, query, &m).map(|()| m));
            match outcome {
                Ok(measurement) => {
                    if attempts > 1 {
                        report.incidents.push(RunIncident {
                            setup,
                            query,
                            run,
                            attempts,
                            error: last_error
                                .map_or_else(|| "unknown failure".to_string(), |e| e.to_string()),
                            recovered: true,
                        });
                    }
                    report.measurements.push(Measurement {
                        setup,
                        query,
                        run,
                        execution_seconds: measurement.execution_seconds,
                        output_records: measurement.output_records,
                        attempts,
                    });
                    return Ok(());
                }
                Err(e) => last_error = Some(e),
            }
        }
        report.incidents.push(RunIncident {
            setup,
            query,
            run,
            attempts,
            error: last_error.map_or_else(|| "unknown failure".to_string(), |e| e.to_string()),
            recovered: false,
        });
        Ok(())
    }

    fn measure(
        &self,
        broker: &Broker,
        setup: Setup,
        output_topic: &str,
    ) -> Result<QueryMeasurement, BenchError> {
        calculator::measure(broker, output_topic)
            .map_err(|e| BenchError::Calculator(format!("{setup}: {e}")))
    }

    fn check_output(
        &self,
        setup: Setup,
        query: Query,
        measurement: &QueryMeasurement,
    ) -> Result<(), BenchError> {
        if let Some(expected) = query.expected_outputs(self.config.records) {
            if measurement.output_records != expected {
                return Err(BenchError::WrongOutput {
                    setup: setup.to_string(),
                    expected,
                    actual: measurement.output_records,
                });
            }
        }
        Ok(())
    }
}

/// Runs one setup of the matrix on `bus`: builds `setup`'s engine for
/// `query`, reading `input` and writing `output`, and runs it to
/// completion — over the bounded input, or with `follow = Some(n)`
/// tailing `input` until `n` records were consumed. This is the one
/// (system, API) dispatch of the campaign layer: batch runs, open-loop
/// trials, failover cells and the Criterion benches all execute through
/// it, on a [`Broker`] or a replicated [`logbus::Cluster`] alike.
///
/// # Errors
///
/// [`BenchError::Execution`] when the engine or runner fails.
pub fn execute_setup(
    bus: impl Into<BusHandle>,
    setup: Setup,
    query: Query,
    input: &str,
    output: &str,
    follow: Option<u64>,
    dstream_batch_records: usize,
) -> Result<(), BenchError> {
    let bus = bus.into();
    let p = setup.parallelism;
    let result = match (setup.system, setup.api) {
        (System::Rill, Api::Native) => match follow {
            None => queries::native_rill(&bus, query, input, output, p),
            Some(n) => queries::native_rill_following(&bus, query, input, output, p, n),
        }
        .map(drop)
        .map_err(|e| e.to_string()),
        (System::DStream, Api::Native) => {
            let batch = dstream_batch_records;
            match follow {
                None => queries::native_dstream(&bus, query, input, output, p, batch),
                Some(n) => {
                    queries::native_dstream_following(&bus, query, input, output, p, batch, n)
                }
            }
            .map(drop)
            .map_err(|e| e.to_string())
        }
        (System::Apx, Api::Native) => {
            let mut rm = fresh_yarn_cluster_for(p);
            let vcores = p as u32;
            match follow {
                None => queries::native_apx(&bus, query, input, output, vcores, &mut rm),
                Some(n) => {
                    queries::native_apx_following(&bus, query, input, output, vcores, &mut rm, n)
                }
            }
            .map(drop)
            .map_err(|e| e.to_string())
        }
        (system, Api::Beam) => {
            let pipeline = match follow {
                None => queries::beam_pipeline(&bus, query, input, output),
                Some(n) => queries::beam_pipeline_following(&bus, query, input, output, n),
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
                        .with_batch_records(dstream_batch_records),
                ),
                System::Apx => Box::new(ApxRunner::new().with_vcores(p as u32)),
            };
            runner.run(&pipeline).map(drop).map_err(|e| e.to_string())
        }
    };
    result.map_err(|message| BenchError::Execution {
        setup: setup.to_string(),
        message,
    })
}

/// A fresh two-worker YARN-style cluster, matching the paper's two
/// worker nodes.
pub fn fresh_yarn_cluster() -> yarnsim::ResourceManager {
    fresh_yarn_cluster_for(1)
}

/// A fresh YARN-style cluster sized for `parallelism` engine workers:
/// the paper's two worker nodes, plus one more per eight additional
/// containers so high-parallelism scale-out cells never starve on
/// vcores.
pub fn fresh_yarn_cluster_for(parallelism: usize) -> yarnsim::ResourceManager {
    let nodes = 2.max(parallelism.div_ceil(8));
    let mut rm = yarnsim::ResourceManager::new();
    for _ in 0..nodes {
        rm.register_node(yarnsim::Resource::new(64 * 1024, 32));
    }
    rm
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::Bus;

    /// Loads `records` workload records into `bus`'s `input` topic.
    fn load(bus: impl Into<BusHandle>, records: u64) -> BusHandle {
        let bus = bus.into();
        bus.create_topic("input", TopicConfig::default()).unwrap();
        let config = SenderConfig {
            records,
            ..SenderConfig::default()
        };
        send_workload(&bus, "input", &config).unwrap();
        bus
    }

    #[test]
    fn execute_setup_runs_every_setup_on_a_broker_and_a_cluster() {
        let cluster = logbus::Cluster::new(logbus::ClusterConfig { brokers: 3 });
        for bus in [load(Broker::new(), 200), load(cluster, 200)] {
            for setup in all_setups(&[1]) {
                let output = format!("output-{setup}");
                bus.create_topic(&output, TopicConfig::default()).unwrap();
                execute_setup(&bus, setup, Query::Grep, "input", &output, None, 2_000).unwrap();
                assert_eq!(
                    bus.latest_offset(&output, 0).unwrap(),
                    crate::data::expected_grep_hits(200),
                    "{setup}"
                );
            }
        }
    }

    #[test]
    fn quick_benchmark_identity_single_setup() {
        let config = BenchConfig::quick()
            .records(300)
            .runs(1)
            .parallelisms(vec![1]);
        let runner = BenchmarkRunner::new(config);
        let measurements = runner.run_query(Query::Grep).unwrap();
        // 3 systems × 2 APIs × 1 parallelism × 1 run.
        assert_eq!(measurements.len(), 6);
        for m in &measurements {
            assert_eq!(m.query, Query::Grep);
            assert_eq!(m.output_records, crate::data::expected_grep_hits(300));
            assert!(m.execution_seconds >= 0.0);
        }
    }

    #[test]
    fn faulted_campaign_still_produces_correct_output() {
        let config = BenchConfig::quick()
            .records(300)
            .runs(1)
            .parallelisms(vec![1])
            .with_fault_seed(2019);
        let runner = BenchmarkRunner::new(config);
        let report = runner.run_query_report(Query::Grep).unwrap();
        // Every setup still yields its measurement: the engines ride
        // through the injected faults, and any run that does fail gets
        // retried rather than aborting the campaign.
        assert_eq!(
            report.measurements.len() + report.incidents.iter().filter(|i| !i.recovered).count(),
            6
        );
        for m in &report.measurements {
            assert_eq!(m.output_records, crate::data::expected_grep_hits(300));
            assert!(m.attempts >= 1);
        }
        for incident in &report.incidents {
            assert!(incident.attempts >= 2, "{incident:?}");
        }
    }

    #[test]
    fn sample_outputs_match_across_apis() {
        let config = BenchConfig::quick()
            .records(400)
            .runs(1)
            .parallelisms(vec![1]);
        let runner = BenchmarkRunner::new(config);
        let measurements = runner.run_query(Query::Sample).unwrap();
        let counts: std::collections::HashSet<u64> =
            measurements.iter().map(|m| m.output_records).collect();
        assert_eq!(
            counts.len(),
            1,
            "all setups sample the same records: {measurements:?}"
        );
    }
}
