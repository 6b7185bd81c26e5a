//! Kill-the-leader failover campaign: the robustness counterpart of the
//! throughput benchmarks.
//!
//! Each cell of the campaign runs one implementation variant of the
//! matrix against a **replicated** [`logbus::Cluster`] while a chaos
//! thread repeatedly fails the machine hosting the current partition
//! leader: the leader's YARN node goes down via
//! [`yarnsim::ResourceManager::fail_node`] (displacing the broker
//! container onto a healthy host, as the RM would), the broker process
//! is killed via [`Cluster::kill_broker`], and after a hold period the
//! broker rejoins via [`Cluster::restart_broker`] — truncating its
//! unacknowledged tail and catching back up into the in-sync set.
//!
//! The campaign asserts the DESIGN.md §10 contract end to end: with
//! epoch-fenced elections, a committed-read high-watermark, and
//! idempotent producer retries, every engine rides through the kills
//! with **byte-identical** output. The chaos thread also measures each
//! partition's unavailability window (leader kill until the partition
//! serves again under its successor) into an [`obs::Histogram`], whose
//! percentiles the EXPERIMENTS.md failover appendix reports.

use crate::config::{CampaignConfig, Trials};
use crate::data::QueryLogGenerator;
use crate::queries::Query;
use crate::report::{json_array, JsonObject};
use crate::runner::{execute_setup, BenchError};
use crate::sender::{send_workload, SenderConfig};
use crate::setup::Setup;
use bytes::Bytes;
use logbus::{Cluster, ClusterConfig, TopicConfig};
use obs::HistogramSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Broker count of the replicated cluster (the paper's Kafka cluster
/// has three nodes).
const BROKERS: u32 = 3;

/// How long a killed broker stays down before it is restarted; the
/// cluster serves on the surviving replicas for the whole window.
const HOLD: Duration = Duration::from_millis(10);

/// Micro-batch size of the `dstream` engine: small, so kills land
/// between batches of a running job.
const DSTREAM_BATCH_RECORDS: usize = 256;

/// One completed failover cell.
#[derive(Debug, Clone)]
pub struct FailoverCell {
    /// The executed setup.
    pub setup: Setup,
    /// Records in the output topic (committed reads only).
    pub output_records: u64,
    /// Whether the output is byte-identical to the fault-free
    /// reference, in order.
    pub output_ok: bool,
    /// Leader kills actually landed during the run.
    pub kills: u32,
    /// Leader epoch of the input partition after the run — the number
    /// of elections it survived.
    pub input_epoch: u64,
    /// Broker containers the YARN node failures displaced (and the RM
    /// re-placed on healthy hosts).
    pub displaced_containers: u32,
    /// Per-kill unavailability windows (leader kill until the partition
    /// served a committed request again), µs: one sample per kill.
    pub unavailability: HistogramSnapshot,
}

/// Aggregated outcome of a failover campaign.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The campaign that ran.
    pub config: CampaignConfig,
    /// One entry per executed cell.
    pub cells: Vec<FailoverCell>,
}

impl FailoverReport {
    /// All unavailability windows of the campaign, µs.
    pub fn unavailability(&self) -> HistogramSnapshot {
        let mut all = HistogramSnapshot::empty();
        for cell in &self.cells {
            all.merge(&cell.unavailability);
        }
        all
    }

    /// Whether every cell produced the byte-identical reference output.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.output_ok)
    }

    /// The report as one JSON object (schema asserted by CI's
    /// `failover-smoke` job).
    pub fn to_json(&self) -> String {
        let all = self.unavailability();
        let unavailability = JsonObject::default()
            .num("samples", all.count)
            .num("p50_micros", all.p50())
            .num("p99_micros", all.p99())
            .num("max_micros", all.max)
            .finish();
        let cells = json_array(&self.cells, |cell| {
            JsonObject::default()
                .str("setup", &cell.setup.to_string())
                .num("output_records", cell.output_records)
                .num("output_ok", cell.output_ok)
                .num("kills", cell.kills)
                .num("input_epoch", cell.input_epoch)
                .num("displaced_containers", cell.displaced_containers)
                .num("p50_micros", cell.unavailability.p50())
                .num("max_micros", cell.unavailability.max)
                .finish()
        });
        JsonObject::default()
            .str("query", &self.config.query.to_string())
            .num("brokers", BROKERS)
            .num("records", self.config.records)
            .raw("unavailability", &unavailability)
            .raw("cells", &cells)
            .finish()
    }
}

/// The broker fleet as a YARN application: one node per broker, one
/// pinned broker container per node, plus the fleet's master container.
/// Failing a leader's host goes through the real RM path —
/// [`yarnsim::ResourceManager::fail_node`] kills the containers the node
/// hosted and re-places them on healthy capacity, which is what "the
/// broker restarts on another machine" means here.
struct BrokerHosts {
    rm: yarnsim::ResourceManager,
    /// Broker index → the node currently hosting its container.
    hosts: Vec<yarnsim::NodeId>,
    displaced: u32,
}

/// Capacity of one broker host (memory MB, vcores).
const HOST_CAPACITY: (u64, u32) = (8_192, 8);
/// Size of one broker container.
const BROKER_CONTAINER: (u64, u32) = (4_096, 4);

impl BrokerHosts {
    fn new(brokers: u32) -> Result<Self, BenchError> {
        let chaos = |e: &dyn std::fmt::Display| BenchError::Broker(format!("broker hosts: {e}"));
        let mut rm = yarnsim::ResourceManager::new();
        let nodes: Vec<yarnsim::NodeId> = (0..brokers)
            .map(|_| rm.register_node(yarnsim::Resource::new(HOST_CAPACITY.0, HOST_CAPACITY.1)))
            .collect();
        let app = rm
            .submit_application("logbus-brokers", yarnsim::Resource::new(512, 1))
            .map_err(|e| chaos(&e))?;
        let mut hosts = Vec::with_capacity(brokers as usize);
        for &node in &nodes {
            let granted = rm
                .allocate(
                    app,
                    &[yarnsim::ResourceRequest::new(yarnsim::Resource::new(
                        BROKER_CONTAINER.0,
                        BROKER_CONTAINER.1,
                    ))
                    .on_node(node)],
                )
                .map_err(|e| chaos(&e))?;
            hosts.push(granted[0].node);
        }
        Ok(BrokerHosts {
            rm,
            hosts,
            displaced: 0,
        })
    }

    /// Fails the node hosting `broker`'s container. The RM re-places the
    /// displaced containers on healthy capacity; the broker's new host
    /// (where its process will restart) is recorded, and a replacement
    /// machine is registered so the fleet never runs out of hosts.
    fn fail_broker_host(&mut self, broker: usize) {
        let Ok(replacements) = self.rm.fail_node(self.hosts[broker]) else {
            return;
        };
        self.displaced += replacements.len() as u32;
        if let Some(container) = replacements.iter().find(|c| !c.is_master) {
            self.hosts[broker] = container.node;
        }
        // A fresh machine replaces the failed one, keeping capacity for
        // the next kill.
        self.rm
            .register_node(yarnsim::Resource::new(HOST_CAPACITY.0, HOST_CAPACITY.1));
    }
}

/// What the chaos thread observed.
struct ChaosOutcome {
    kills: u32,
    displaced: u32,
    unavailability: obs::Histogram,
}

/// Runs the kill-the-leader campaign.
///
/// # Errors
///
/// Fails on cluster errors outside the chaos window (topic creation,
/// workload load) or when an engine run fails outright; kills landing
/// mid-run are expected to be survived, not retried.
pub fn run_failover(config: &CampaignConfig) -> Result<FailoverReport, BenchError> {
    config.validate()?;
    let Trials::Kills(kills) = config.trials else {
        return Err(BenchError::Config(
            "a failover campaign needs a kill count".into(),
        ));
    };
    let expected = reference(config.query, config.records, config.seed);
    let cells = config
        .setups()
        .into_iter()
        .map(|setup| run_cell(config, setup, kills, &expected))
        .collect::<Result<_, _>>()?;
    Ok(FailoverReport {
        config: config.clone(),
        cells,
    })
}

/// The fault-free reference output: `Query::apply` over the generated
/// payloads in order.
fn reference(query: Query, records: u64, seed: u64) -> Vec<Bytes> {
    QueryLogGenerator::new(seed)
        .payloads(records)
        .iter()
        .filter_map(|p| query.apply(p))
        .collect()
}

fn run_cell(
    config: &CampaignConfig,
    setup: Setup,
    kills: u32,
    expected: &[Bytes],
) -> Result<FailoverCell, BenchError> {
    let mut span = obs::span("failover.cell");
    span.field("setup", setup.to_string());
    let cluster = Cluster::new(ClusterConfig { brokers: BROKERS });
    let replication = TopicConfig::default().replication_factor(BROKERS);
    cluster.create_topic("input", replication.clone())?;
    cluster.create_topic("output", replication)?;
    send_workload(
        &cluster,
        "input",
        &SenderConfig {
            records: config.records,
            seed: config.seed,
            acks: logbus::Acks::All,
            ..SenderConfig::default()
        },
    )?;

    let hosts = BrokerHosts::new(BROKERS)?;
    let stop = Arc::new(AtomicBool::new(false));
    let chaos = spawn_chaos(cluster.clone(), hosts, stop.clone(), kills);

    let exec = execute_setup(
        &cluster,
        setup,
        config.query,
        "input",
        "output",
        None,
        DSTREAM_BATCH_RECORDS,
    );
    stop.store(true, Ordering::Release);
    let outcome = chaos
        .join()
        .map_err(|_| BenchError::Broker("chaos thread panicked".into()))?;
    exec?;

    let got: Vec<Bytes> = cluster
        .fetch("output", 0, 0, expected.len() + 1_024)?
        .into_iter()
        .map(|stored| stored.record.value)
        .collect();
    Ok(FailoverCell {
        setup,
        output_records: got.len() as u64,
        output_ok: got == expected,
        kills: outcome.kills,
        input_epoch: cluster.leader_epoch("input", 0)?,
        displaced_containers: outcome.displaced,
        unavailability: outcome.unavailability.snapshot(),
    })
}

/// The chaos thread: waits for output progress, then fails the current
/// input-partition leader's host, kills the broker, measures how long
/// the partition stays unavailable, holds, and restarts the broker on
/// its replacement host. Alternates the victim between the input and
/// output partitions' leaders.
fn spawn_chaos(
    cluster: Cluster,
    mut hosts: BrokerHosts,
    stop: Arc<AtomicBool>,
    kills: u32,
) -> std::thread::JoinHandle<ChaosOutcome> {
    std::thread::spawn(move || {
        let mut outcome = ChaosOutcome {
            kills: 0,
            displaced: 0,
            unavailability: obs::Histogram::new(),
        };
        for kill in 0..kills {
            let topic = if kill % 2 == 0 { "input" } else { "output" };
            // Let the engine make some progress first so the kill lands
            // mid-run, but never block a finished run.
            let progress_deadline = Instant::now() + Duration::from_millis(200);
            while Instant::now() < progress_deadline && !stop.load(Ordering::Acquire) {
                if cluster.latest_offset("output", 0).is_ok_and(|o| o > 0) {
                    break;
                }
                std::thread::yield_now();
            }
            if stop.load(Ordering::Acquire) && kill > 0 {
                break;
            }
            let Ok(leader) = cluster.leader_of(topic, 0) else {
                continue;
            };
            hosts.fail_broker_host(leader);
            cluster.kill_broker(leader);
            // Unavailability window: kill until the partition serves a
            // committed request again (the lazy election runs inside the
            // first such request).
            let killed_at = Instant::now();
            let serve_deadline = killed_at + Duration::from_secs(2);
            while cluster.latest_offset(topic, 0).is_err() {
                if Instant::now() > serve_deadline {
                    break;
                }
                std::thread::yield_now();
            }
            outcome
                .unavailability
                .record(killed_at.elapsed().as_micros() as u64);
            outcome.kills += 1;
            std::thread::sleep(HOLD);
            // The replacement container is up: the broker process
            // restarts, truncates its unacknowledged tail, and catches
            // back up into the in-sync set.
            cluster.restart_broker(leader);
        }
        outcome.displaced = hosts.displaced;
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{Api, System};

    #[test]
    fn unavailability_percentiles_come_from_obs_histograms() {
        let cell = |samples: &[u64]| {
            let histogram = obs::Histogram::new();
            for &sample in samples {
                histogram.record(sample);
            }
            FailoverCell {
                setup: Setup {
                    system: System::Rill,
                    api: Api::Native,
                    parallelism: 1,
                },
                output_records: 0,
                output_ok: true,
                kills: samples.len() as u32,
                input_epoch: 1,
                displaced_containers: 1,
                unavailability: histogram.snapshot(),
            }
        };
        // Below 16 µs the histogram is exact: nearest-rank percentiles
        // over the merged cells.
        let report = FailoverReport {
            config: CampaignConfig::failover(),
            cells: vec![cell(&[4, 2]), cell(&[8, 6])],
        };
        let json = report.to_json();
        assert!(
            json.contains(
                "\"unavailability\":{\"samples\":4,\"p50_micros\":4,\"p99_micros\":8,\"max_micros\":8}"
            ),
            "{json}"
        );
        assert!(json.contains("\"p50_micros\":2,\"max_micros\":4"), "{json}");
    }

    #[test]
    fn broker_hosts_survive_leader_host_failures() {
        let mut hosts = BrokerHosts::new(3).unwrap();
        let first = hosts.hosts[0];
        hosts.fail_broker_host(0);
        assert_ne!(hosts.hosts[0], first, "the container moved to a new host");
        assert!(hosts.displaced >= 1);
        // Repeated failures keep finding capacity (a fresh machine is
        // registered per failure).
        for _ in 0..4 {
            let victim = hosts.hosts[1];
            hosts.fail_broker_host(1);
            assert_ne!(hosts.hosts[1], victim);
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let config = CampaignConfig {
            trials: Trials::Rates(vec![500.0]),
            ..CampaignConfig::failover()
        };
        assert!(run_failover(&config).is_err());
        let config = CampaignConfig {
            cells: Vec::new(),
            ..CampaignConfig::failover()
        };
        assert!(run_failover(&config).is_err());
    }

    #[test]
    fn single_cell_rides_through_kills() {
        let config = CampaignConfig {
            records: 600,
            cells: vec![(System::Rill, Api::Native)],
            trials: Trials::Kills(1),
            ..CampaignConfig::failover()
        };
        let report = run_failover(&config).unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert!(cell.output_ok, "output must be byte-identical: {cell:?}");
        assert_eq!(cell.output_records, 600);
        assert!(cell.kills >= 1);
        assert_eq!(cell.unavailability.count, u64::from(cell.kills));
        let json = report.to_json();
        assert!(json.contains("\"p50_micros\""));
        assert!(json.contains("rill-native-p1"));
    }
}
