//! Benchmark and campaign configuration.

use crate::queries::Query;
use crate::runner::BenchError;
use crate::setup::{Api, Setup, System};
use logbus::Acks;

/// Configuration of a full benchmark campaign.
///
/// The paper's setup is `records = 1_000_001`, `runs = 10`,
/// `parallelisms = [1, 2]`. Reproduction runs default to a scaled-down
/// workload so the full matrix finishes quickly; per-record costs scale
/// linearly, so ratios (orderings, slowdown factors) are preserved.
/// Override with the builder methods.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Input records per query benchmark.
    pub records: u64,
    /// Repetitions per setup (the paper's `N_run = 10`).
    pub runs: u32,
    /// Parallelism degrees (the paper's `[1, 2]`).
    pub parallelisms: Vec<usize>,
    /// Simulated broker network round trip per request, in microseconds.
    /// The paper's brokers live on a remote three-node cluster; see
    /// `logbus::Broker::set_request_latency_micros`.
    pub request_latency_micros: u64,
    /// Workload seed.
    pub seed: u64,
    /// Producer acknowledgement level of the data sender.
    pub sender_acks: Acks,
    /// Micro-batch size of the `dstream` engine.
    pub dstream_batch_records: usize,
    /// Streaming-window size of the `apx` engine: the `ApxRunner`
    /// default, for callers that build the Beam runner themselves.
    pub apx_window_size: usize,
    /// Seed of the environment-noise model; `None` disables noise (the
    /// default — only the variance experiments enable it).
    pub noise_seed: Option<u64>,
    /// Seed of the broker fault plan installed during each run's
    /// processing phase (`logbus::FaultPlan::seeded`); `None` (the
    /// default) benchmarks a fault-free broker. Load and measurement
    /// phases always run fault-free.
    pub fault_seed: Option<u64>,
    /// Retries granted to a failed run before it is abandoned and
    /// recorded as an outlier-with-cause (total attempts = 1 + retries).
    pub max_run_retries: u32,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            records: 20_000,
            runs: 3,
            parallelisms: vec![1, 2],
            request_latency_micros: 25,
            seed: 2019,
            sender_acks: Acks::Leader,
            dstream_batch_records: 2_000,
            apx_window_size: 2_048,
            noise_seed: None,
            fault_seed: None,
            max_run_retries: 2,
        }
    }
}

impl BenchConfig {
    /// A tiny configuration for tests: 2,000 records, 2 runs, no
    /// simulated latency.
    pub fn quick() -> Self {
        BenchConfig {
            records: 2_000,
            runs: 2,
            request_latency_micros: 0,
            ..BenchConfig::default()
        }
    }

    /// Sets the record count.
    pub fn records(mut self, records: u64) -> Self {
        self.records = records.max(1);
        self
    }

    /// Sets the run count.
    pub fn runs(mut self, runs: u32) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Sets the parallelism degrees.
    ///
    /// # Panics
    ///
    /// Panics when `parallelisms` is empty or contains zero.
    pub fn parallelisms(mut self, parallelisms: Vec<usize>) -> Self {
        assert!(!parallelisms.is_empty(), "at least one parallelism");
        assert!(
            parallelisms.iter().all(|&p| p > 0),
            "parallelism must be positive"
        );
        self.parallelisms = parallelisms;
        self
    }

    /// Sets the simulated broker request latency.
    pub fn request_latency_micros(mut self, micros: u64) -> Self {
        self.request_latency_micros = micros;
        self
    }

    /// Enables the environment-noise model with the given seed.
    pub fn with_noise(mut self, seed: u64) -> Self {
        self.noise_seed = Some(seed);
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables broker fault injection during processing with the given
    /// plan seed.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Sets the per-run retry budget.
    pub fn max_run_retries(mut self, retries: u32) -> Self {
        self.max_run_retries = retries;
        self
    }
}

/// A trial is sustainable only if its p99 latency is within this bound,
/// µs.
pub const P99_BOUND_MICROS: u64 = 200_000;

/// A trial is sustainable only if the output topic's append span is at
/// most this multiple of the offered arrival span: an engine that needs
/// much longer than the arrival window to drain is falling behind.
pub const CATCHUP_RATIO: f64 = 1.5;

/// What a campaign's trials vary per cell — the only part in which the
/// latency, scale-out and failover campaigns differ.
#[derive(Debug, Clone, PartialEq)]
pub enum Trials {
    /// One open-loop trial per offered rate, records per second.
    Rates(Vec<f64>),
    /// Binary-search the max sustainable open-loop rate in
    /// `[min_rate, max_rate]` for up to `iters` bisection rounds.
    Search {
        /// The search floor, records per second.
        min_rate: f64,
        /// The search ceiling, records per second.
        max_rate: f64,
        /// Bisection rounds after the ceiling and floor probes.
        iters: u32,
    },
    /// Partition-leader kills injected while each cell runs against a
    /// replicated cluster.
    Kills(u32),
}

/// Configuration of a latency, scale-out or failover campaign: the
/// (system, SDK) cells × parallelisms matrix, the workload, and the
/// trial kind.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// The query under test.
    pub query: Query,
    /// Input records per trial.
    pub records: u64,
    /// Leading records excluded from latency statistics (engine
    /// startup transients: container allocation, first-batch effects).
    pub warmup_records: u64,
    /// Parallelism degrees per (system, SDK) cell.
    pub parallelisms: Vec<usize>,
    /// The (system, SDK) cells to run.
    pub cells: Vec<(System, Api)>,
    /// Workload seed.
    pub seed: u64,
    /// What the trials of each cell vary.
    pub trials: Trials,
}

impl CampaignConfig {
    /// The latency sweep: all six cells at parallelism 1 and 2, each
    /// offered 500, 2,000 and 8,000 records per second.
    pub fn latency() -> Self {
        CampaignConfig {
            query: Query::Identity,
            records: 2_000,
            warmup_records: 200,
            parallelisms: vec![1, 2],
            cells: System::ALL
                .iter()
                .flat_map(|&system| Api::ALL.iter().map(move |&api| (system, api)))
                .collect(),
            seed: 2019,
            trials: Trials::Rates(vec![500.0, 2_000.0, 8_000.0]),
        }
    }

    /// The scale-out search over parallelism 1 to 32: the paper's
    /// headline pair (native rill vs beamline-on-rill) plus the native
    /// dstream and apx engines, so every system is covered.
    pub fn scaleout() -> Self {
        CampaignConfig {
            records: 1_500,
            parallelisms: vec![1, 2, 4, 8, 16, 32],
            cells: vec![
                (System::Rill, Api::Native),
                (System::Rill, Api::Beam),
                (System::DStream, Api::Native),
                (System::Apx, Api::Native),
            ],
            trials: Trials::Search {
                min_rate: 500.0,
                max_rate: 64_000.0,
                iters: 5,
            },
            ..Self::latency()
        }
    }

    /// The kill-the-leader campaign: all six cells at parallelism 1
    /// (which keeps the byte-identity check order-sensitive), two kills
    /// per cell.
    pub fn failover() -> Self {
        CampaignConfig {
            parallelisms: vec![1],
            trials: Trials::Kills(2),
            ..Self::latency()
        }
    }

    /// The cell matrix: for each configured (system, SDK) pair, one
    /// setup per parallelism degree in ascending order.
    pub fn setups(&self) -> Vec<Setup> {
        let mut parallelisms = self.parallelisms.clone();
        parallelisms.sort_unstable();
        parallelisms.dedup();
        self.cells
            .iter()
            .flat_map(|&(system, api)| {
                parallelisms.iter().map(move |&parallelism| Setup {
                    system,
                    api,
                    parallelism,
                })
            })
            .collect()
    }

    /// Checks that the campaign has something to run.
    ///
    /// # Errors
    ///
    /// [`BenchError::Config`] for zero records, an empty cell or
    /// parallelism list, a zero parallelism, a missing or non-positive
    /// rate, or an inverted search bracket.
    pub fn validate(&self) -> Result<(), BenchError> {
        let positive = |rate: f64| rate.is_finite() && rate > 0.0;
        let problem = if self.records == 0 {
            Some("no records per trial".to_string())
        } else if self.cells.is_empty() {
            Some("no cells configured".to_string())
        } else if self.parallelisms.is_empty() || self.parallelisms.contains(&0) {
            Some(format!("invalid parallelisms {:?}", self.parallelisms))
        } else {
            match &self.trials {
                Trials::Rates(rates) if rates.is_empty() || !rates.iter().all(|&r| positive(r)) => {
                    Some(format!("invalid offered rates {rates:?}"))
                }
                Trials::Search {
                    min_rate, max_rate, ..
                } if !(positive(*min_rate) && positive(*max_rate) && max_rate >= min_rate) => {
                    Some(format!("invalid rate bracket [{min_rate}, {max_rate}]"))
                }
                _ => None,
            }
        };
        problem.map_or(Ok(()), |p| Err(BenchError::Config(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BenchConfig::default();
        assert!(c.records >= 1);
        assert!(c.runs >= 1);
        assert_eq!(c.parallelisms, vec![1, 2]);
        assert!(c.noise_seed.is_none());
    }

    #[test]
    fn builders() {
        let c = BenchConfig::quick()
            .records(500)
            .runs(5)
            .parallelisms(vec![1])
            .request_latency_micros(42)
            .with_noise(7)
            .seed(1)
            .with_fault_seed(13)
            .max_run_retries(4);
        assert_eq!(c.records, 500);
        assert_eq!(c.runs, 5);
        assert_eq!(c.parallelisms, vec![1]);
        assert_eq!(c.request_latency_micros, 42);
        assert_eq!(c.noise_seed, Some(7));
        assert_eq!(c.seed, 1);
        assert_eq!(c.fault_seed, Some(13));
        assert_eq!(c.max_run_retries, 4);
    }

    #[test]
    #[should_panic(expected = "at least one parallelism")]
    fn empty_parallelisms_panics() {
        let _ = BenchConfig::quick().parallelisms(vec![]);
    }
}
