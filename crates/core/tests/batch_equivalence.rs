//! Equivalence suite for the batched data plane (DESIGN.md §9): the
//! vectorized operator chains and the allocation-free Beam coder path
//! must be invisible in the results. Every implementation — the three
//! native engines and the three abstraction-layer runners — has to
//! produce exactly the bytes of the per-element reference
//! [`Query::apply`], for all four queries, at parallelism 1 and 2.
//!
//! Parallelism 1 asserts byte-identical **and order-preserving** output.
//! Parallelism 2 compares as multisets: repartitioning (the dstream
//! runner repartitions every micro-batch, rill splits the source across
//! subtasks) may legally interleave outputs, but must neither drop,
//! duplicate, nor alter a single byte. Parallelism 4 runs against a
//! **multi-partition** input topic (records key-hash routed through the
//! shared producer partitioner) so the engines' consumer groups have to
//! split real partitions — again compared as multisets.

use beamline::runners::{ApxRunner, DStreamRunner, RillRunner};
use beamline::PipelineRunner;
use bytes::Bytes;
use logbus::{Broker, Partitioner, Producer, ProducerConfig, Record, TopicConfig};
use proptest::prelude::*;
use streambench_core::{
    beam_pipeline, fresh_yarn_cluster, native_apx, native_dstream, native_rill, send_workload,
    Query, QueryLogGenerator, SenderConfig,
};

/// Partition count of the multi-partition equivalence phase.
const INPUT_PARTITIONS: u32 = 4;

const RECORDS: u64 = 400;
const SEED: u64 = 97;
const BATCH_RECORDS: usize = 128;

/// A broker with the standard workload loaded into the `input` topic.
fn load_input(records: u64, seed: u64) -> Broker {
    let broker = Broker::new();
    broker
        .create_topic("input", TopicConfig::default())
        .unwrap();
    send_workload(
        &broker,
        "input",
        &SenderConfig {
            records,
            seed,
            ..SenderConfig::default()
        },
    )
    .unwrap();
    broker
}

/// A broker whose `input` topic has `partitions` partitions, loaded
/// with the standard workload key-hash routed through the shared
/// producer partitioner (key = the payload's first column, the same
/// routing the scale-out sender uses).
fn load_input_partitioned(records: u64, seed: u64, partitions: u32) -> Broker {
    let broker = Broker::new();
    broker
        .create_topic("input", TopicConfig::default().partitions(partitions))
        .unwrap();
    let mut producer = Producer::with_config(
        broker.clone(),
        ProducerConfig {
            partitioner: Partitioner::KeyHash,
            ..ProducerConfig::default()
        },
    );
    for payload in QueryLogGenerator::new(seed).payloads(records) {
        let cut = payload
            .iter()
            .position(|&b| b == b'\t')
            .unwrap_or(payload.len());
        producer
            .send(
                "input",
                Record::from_key_value(payload.slice(..cut), payload.clone()),
            )
            .unwrap();
    }
    producer.flush().unwrap();
    broker
}

/// The per-element reference: `Query::apply` over the generated payloads
/// in generation order.
fn reference(query: Query, records: u64, seed: u64) -> Vec<Bytes> {
    QueryLogGenerator::new(seed)
        .payloads(records)
        .iter()
        .filter_map(|p| query.apply(p))
        .collect()
}

/// All record values of an output topic, in log order.
fn outputs(broker: &Broker, topic: &str) -> Vec<Bytes> {
    broker
        .fetch(topic, 0, 0, 100_000)
        .unwrap()
        .into_iter()
        .map(|stored| stored.record.value)
        .collect()
}

/// The six implementation variants of the benchmark matrix.
#[derive(Debug, Clone, Copy)]
enum Impl {
    RillNative,
    DStreamNative,
    ApxNative,
    RillBeam,
    DStreamBeam,
    ApxBeam,
}

const ALL_IMPLS: [Impl; 6] = [
    Impl::RillNative,
    Impl::DStreamNative,
    Impl::ApxNative,
    Impl::RillBeam,
    Impl::DStreamBeam,
    Impl::ApxBeam,
];

fn execute(imp: Impl, broker: &Broker, query: Query, output: &str, parallelism: usize) {
    match imp {
        Impl::RillNative => {
            native_rill(broker, query, "input", output, parallelism).unwrap();
        }
        Impl::DStreamNative => {
            native_dstream(broker, query, "input", output, parallelism, BATCH_RECORDS).unwrap();
        }
        Impl::ApxNative => {
            let mut rm = fresh_yarn_cluster();
            native_apx(broker, query, "input", output, parallelism as u32, &mut rm).unwrap();
        }
        Impl::RillBeam => {
            let pipeline = beam_pipeline(broker, query, "input", output);
            RillRunner::new()
                .with_parallelism(parallelism)
                .run(&pipeline)
                .unwrap();
        }
        Impl::DStreamBeam => {
            let pipeline = beam_pipeline(broker, query, "input", output);
            DStreamRunner::new()
                .with_parallelism(parallelism)
                .with_batch_records(BATCH_RECORDS)
                .run(&pipeline)
                .unwrap();
        }
        Impl::ApxBeam => {
            let pipeline = beam_pipeline(broker, query, "input", output);
            ApxRunner::new()
                .with_vcores(parallelism as u32)
                .run(&pipeline)
                .unwrap();
        }
    }
}

/// Runs all six implementations at parallelism 1 and 2 (single-partition
/// input), then at parallelism 4 against a 4-partition key-routed input,
/// checking each against the per-element reference.
fn assert_query_equivalence(query: Query) {
    let broker = load_input(RECORDS, SEED);
    let expected = reference(query, RECORDS, SEED);
    assert!(!expected.is_empty(), "workload must produce output");
    let mut expected_sorted = expected.clone();
    expected_sorted.sort();

    for parallelism in [1usize, 2] {
        for imp in ALL_IMPLS {
            let topic = format!("out-{imp:?}-p{parallelism}");
            broker.create_topic(&topic, TopicConfig::default()).unwrap();
            execute(imp, &broker, query, &topic, parallelism);
            let got = outputs(&broker, &topic);
            if parallelism == 1 {
                assert_eq!(
                    got, expected,
                    "{imp:?} at parallelism 1 must match the reference byte-for-byte, in order ({query})"
                );
            } else {
                let mut got_sorted = got;
                got_sorted.sort();
                assert_eq!(
                    got_sorted, expected_sorted,
                    "{imp:?} at parallelism 2 must match the reference as a multiset ({query})"
                );
            }
        }
    }

    // Parallelism 4 over a genuinely partitioned input: the consumer
    // group splits 4 partitions across the parallel sources, and the
    // union of their outputs must still be the reference multiset.
    let partitioned = load_input_partitioned(RECORDS, SEED, INPUT_PARTITIONS);
    for imp in ALL_IMPLS {
        let topic = format!("out-{imp:?}-p4-multi");
        partitioned
            .create_topic(&topic, TopicConfig::default())
            .unwrap();
        execute(imp, &partitioned, query, &topic, 4);
        let mut got_sorted = outputs(&partitioned, &topic);
        got_sorted.sort();
        assert_eq!(
            got_sorted, expected_sorted,
            "{imp:?} at parallelism 4 over {INPUT_PARTITIONS} partitions must match the reference as a multiset ({query})"
        );
    }
}

/// Delivery-guarantee acceptance: under a seeded plan of transient
/// broker faults (errors, lost acks, duplicates, latency), every
/// implementation must still produce exactly the fault-free reference
/// bytes — in order at parallelism 1, as a multiset at parallelism 2.
/// Retries ride out the errors and the idempotent output path dedups
/// lost-ack resends, so the faults are invisible in the results.
#[test]
fn all_impls_match_reference_under_fault_plan() {
    for query in Query::ALL {
        let broker = load_input(RECORDS, SEED);
        let expected = reference(query, RECORDS, SEED);
        let mut expected_sorted = expected.clone();
        expected_sorted.sort();

        for parallelism in [1usize, 2] {
            for imp in ALL_IMPLS {
                let topic = format!("chaos-{imp:?}-p{parallelism}");
                broker.create_topic(&topic, TopicConfig::default()).unwrap();
                broker.install_fault_plan(logbus::FaultPlan::seeded(SEED ^ 0x00C0_FFEE));
                execute(imp, &broker, query, &topic, parallelism);
                broker.clear_fault_plan();
                let got = outputs(&broker, &topic);
                if parallelism == 1 {
                    assert_eq!(
                        got, expected,
                        "{imp:?} under faults must match the fault-free reference in order ({query})"
                    );
                } else {
                    let mut got_sorted = got;
                    got_sorted.sort();
                    assert_eq!(
                        got_sorted, expected_sorted,
                        "{imp:?} under faults must match the fault-free reference as a multiset ({query})"
                    );
                }
            }
        }
    }
}

#[test]
fn identity_matches_per_element_reference() {
    assert_query_equivalence(Query::Identity);
}

/// The equivalence matrix must actually exercise the pooled zero-copy
/// data plane, not a bypass: running one cell of every implementation
/// visibly turns the pool tier over (buffers are both reused and
/// recycled). Guards against a refactor quietly routing the engines
/// around the pooled batch path while the byte-equivalence still holds.
#[test]
fn pool_tier_is_live_during_equivalence_runs() {
    let broker = load_input(RECORDS, SEED);
    let (reused_before, recycled_before) = logbus::pool::stats();
    for imp in ALL_IMPLS {
        let topic = format!("pool-probe-{imp:?}");
        broker.create_topic(&topic, TopicConfig::default()).unwrap();
        execute(imp, &broker, Query::Identity, &topic, 1);
        assert!(!outputs(&broker, &topic).is_empty());
    }
    let (reused_after, recycled_after) = logbus::pool::stats();
    assert!(
        reused_after > reused_before,
        "equivalence runs drew no buffers from the pool tier"
    );
    assert!(
        recycled_after > recycled_before,
        "equivalence runs returned no buffers to the pool tier"
    );
}

#[test]
fn sample_matches_per_element_reference() {
    assert_query_equivalence(Query::Sample);
}

#[test]
fn projection_matches_per_element_reference() {
    assert_query_equivalence(Query::Projection);
}

#[test]
fn grep_matches_per_element_reference() {
    assert_query_equivalence(Query::Grep);
}

proptest! {
    /// Randomized workloads through the fully batched rill path, native
    /// and Beam: whatever the seed and record count, the batched chain
    /// produces exactly the per-element reference — in order at
    /// parallelism 1, as a multiset at parallelism 2.
    #[test]
    fn batched_rill_chain_equals_per_element_reference(seed in any::<u64>(), n in 20u64..120) {
        let query = Query::ALL[(seed % 4) as usize];
        let broker = load_input(n, seed);
        let expected = reference(query, n, seed);

        broker.create_topic("native-out", TopicConfig::default()).unwrap();
        native_rill(&broker, query, "input", "native-out", 1).unwrap();
        prop_assert_eq!(outputs(&broker, "native-out"), expected.clone());

        broker.create_topic("beam-out", TopicConfig::default()).unwrap();
        let pipeline = beam_pipeline(&broker, query, "input", "beam-out");
        RillRunner::new().with_parallelism(1).run(&pipeline).unwrap();
        prop_assert_eq!(outputs(&broker, "beam-out"), expected.clone());

        let mut expected_sorted = expected;
        expected_sorted.sort();
        broker.create_topic("native-out-p2", TopicConfig::default()).unwrap();
        native_rill(&broker, query, "input", "native-out-p2", 2).unwrap();
        let mut got = outputs(&broker, "native-out-p2");
        got.sort();
        prop_assert_eq!(got, expected_sorted);
    }
}

/// Chaos variant with a **rebalance mid-run**: a native rill job at
/// parallelism 2 drains a 4-partition input in a named consumer group
/// while (a) a seeded fault plan injects transient broker faults and
/// (b) a disturber member joins the same group mid-run — forcing the
/// engine subtasks to commit and hand partitions over — holds its
/// assignment briefly, then leaves, handing the partitions back. The
/// commit-then-release handover must make the whole dance invisible:
/// the output is exactly the fault-free reference multiset, nothing
/// lost, nothing duplicated.
#[test]
fn group_rebalance_mid_run_is_exactly_once() {
    use logbus::{AssignmentStrategy, Bus, GroupMember};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const N: u64 = 2_000;
    const GROUP: &str = "chaos-rebalance";
    let broker = load_input_partitioned(N, SEED, INPUT_PARTITIONS);
    let mut expected_sorted = reference(Query::Identity, N, SEED);
    expected_sorted.sort();
    broker
        .create_topic("rebalance-out", TopicConfig::default())
        .unwrap();
    broker.install_fault_plan(logbus::FaultPlan::seeded(SEED ^ 0x0BA1_A4CE));

    let disturber = std::thread::spawn({
        let broker = broker.clone();
        move || {
            let bus: Arc<dyn Bus> = Arc::new(broker);
            // Wait for the engine's group to show committed progress so
            // the join really lands mid-run (bounded: the job may drain
            // everything before we get in — then the join/leave churn
            // still exercises the coordinator, just without a revoke).
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                let committed: u64 = (0..INPUT_PARTITIONS)
                    .filter_map(|p| bus.committed_offset(GROUP, "input", p))
                    .sum();
                if committed > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            // Joining under the fault plan: retry transient errors.
            let mut member = loop {
                match GroupMember::join(
                    bus.clone(),
                    GROUP,
                    "disturber",
                    &["input"],
                    AssignmentStrategy::Range,
                ) {
                    Ok(member) => break member,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let hold = Instant::now() + Duration::from_millis(30);
            while Instant::now() < hold {
                // Claim whatever the revoking subtasks release; errors
                // under the fault plan just retry next poll.
                let _ = member.poll_rebalance(|_| Ok(()), |_| Ok(()));
                std::thread::yield_now();
            }
            while member.leave().is_err() {
                std::thread::yield_now();
            }
        }
    });

    let env = rill::StreamExecutionEnvironment::local();
    env.set_parallelism(2);
    let source = rill::BrokerSource::new(broker.clone(), "input")
        .consumer_group(GROUP, AssignmentStrategy::Range);
    env.add_source(source)
        .map(|v: Bytes| v)
        .add_sink(rill::BrokerSink::new(broker.clone(), "rebalance-out"));
    env.execute("chaos-rebalance").unwrap();
    disturber.join().unwrap();
    broker.clear_fault_plan();

    let mut got_sorted = outputs(&broker, "rebalance-out");
    got_sorted.sort();
    assert_eq!(
        got_sorted, expected_sorted,
        "a mid-run rebalance under faults must not lose or duplicate records"
    );
}

/// Kill-the-leader phase: every cell of the matrix — all six
/// implementations, all four queries — must produce the byte-identical
/// fault-free reference while a chaos thread repeatedly fails the
/// machine hosting the current partition leader (YARN node failure +
/// broker kill + delayed restart on the replacement host). Epoch-fenced
/// elections, the committed-read high-watermark, and idempotent client
/// retries have to make the crashes invisible in the results.
#[test]
fn all_impls_match_reference_across_leader_kills() {
    use streambench_core::{CampaignConfig, Trials};

    let mut elections = 0u64;
    for query in Query::ALL {
        let config = CampaignConfig {
            records: 800,
            query,
            trials: Trials::Kills(2),
            seed: SEED,
            ..CampaignConfig::failover()
        };
        let report = streambench_core::run_failover(&config).unwrap();
        assert_eq!(report.cells.len(), 6, "all six implementation variants");
        for cell in &report.cells {
            assert!(
                cell.output_ok,
                "{} must match the reference byte-for-byte across leader kills \
                 ({query}; {} kills, epoch {})",
                cell.setup, cell.kills, cell.input_epoch
            );
            assert!(cell.kills >= 1, "{}: no kill landed", cell.setup);
            assert_eq!(
                cell.unavailability.count,
                u64::from(cell.kills),
                "every kill measures one unavailability window"
            );
            elections += cell.input_epoch;
        }
    }
    assert!(
        elections > 0,
        "at least one input-partition election must have happened"
    );
}

/// End-of-suite gate for the `check-sync` build: the batched data plane
/// exercised above must leave the lock-order graph acyclic and every
/// append witness untripped. Named `zzz_` so libtest's alphabetical
/// order runs it last (CI passes `--test-threads=1`).
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_batch_equivalence() {
    parking_lot::sync_check::assert_clean("batch_equivalence suite");
    println!("{}", parking_lot::sync_check::report());
}
