//! The asynchronous producer: background sends with adaptive batching.
//!
//! Kafka clients rarely block on produce round trips: records queue in
//! the client, a background sender thread ships them, and batches grow
//! adaptively while requests are in flight. [`AsyncProducer`] models
//! exactly that:
//!
//! * [`AsyncProducer::send`] never waits for the broker;
//! * while one request's round trip is in flight, everything that queued
//!   up behind it is drained into the next batch (up to `max_batch`), so
//!   a fast upstream gets large amortized batches and a sparse upstream
//!   gets per-record appends — with no tuning knob;
//! * [`AsyncProducer::flush`] blocks until everything sent so far is
//!   appended, which is what bundle/checkpoint finalization needs. A
//!   caller that flushes after **every** record has synchronously paid a
//!   full round trip per record — the degenerate behaviour behind the
//!   benchmark's worst measured slowdowns.

use crate::bus::Bus;
use crate::handle::PartitionWriter;
use crate::record::Record;
use crossbeam::channel::{bounded, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Queue capacity; sending blocks once this many records are unshipped
/// (client-side backpressure, like a full `buffer.memory`).
const QUEUE_CAPACITY: usize = 16_384;

/// One unit of work for the sender thread: a single queued record, or a
/// whole batch handed over in one channel message (the batch fast path —
/// one queue operation and one atomic update per batch).
#[derive(Debug)]
enum Queued {
    One(Record),
    Many(Vec<Record>),
}

/// An asynchronous, adaptively batching producer for one partition.
#[derive(Debug)]
pub struct AsyncProducer {
    sender: Option<Sender<Queued>>,
    worker: Option<JoinHandle<()>>,
    max_batch: usize,
    /// Records accepted but not yet appended.
    pending: Arc<AtomicU64>,
}

impl AsyncProducer {
    /// Creates a producer appending to `topic`/`partition` with a maximum
    /// batch of 500 records. Works over any [`Bus`]: against a
    /// [`Cluster`](crate::Cluster) the cached writer re-resolves the
    /// partition leader per attempt, so the background sender rides
    /// through leader failover.
    pub fn new(bus: impl Bus + 'static, topic: impl Into<String>, partition: u32) -> Self {
        Self::with_max_batch(bus, topic, partition, 500)
    }

    /// Creates a producer with an explicit maximum batch size.
    pub fn with_max_batch(
        bus: impl Bus + 'static,
        topic: impl Into<String>,
        partition: u32,
        max_batch: usize,
    ) -> Self {
        let topic = topic.into();
        let max_batch = max_batch.max(1);
        let (sender, receiver) = bounded::<Queued>(QUEUE_CAPACITY);
        let pending = Arc::new(AtomicU64::new(0));
        let pending_worker = pending.clone();
        let retry = crate::RetryPolicy::default();
        let worker = std::thread::Builder::new()
            .name(format!("async-producer-{topic}"))
            .spawn(move || {
                // Cached partition handle; resolved on first use so topics
                // created after the producer still work, re-tried per batch
                // while unresolved.
                let mut writer: Option<PartitionWriter> = None;
                while let Ok(first) = receiver.recv() {
                    // Batches come from (and return to) the pool tier, so
                    // a steady stream reuses the same handful of buffers.
                    let mut batch = match first {
                        Queued::One(record) => {
                            let mut batch = crate::pool::record_vec();
                            batch.push(record);
                            batch
                        }
                        Queued::Many(records) => records,
                    };
                    while batch.len() < max_batch {
                        match receiver.try_recv() {
                            Ok(Queued::One(record)) => batch.push(record),
                            Ok(Queued::Many(mut records)) => {
                                batch.append(&mut records);
                                crate::pool::recycle_record_vec(records);
                            }
                            Err(_) => break,
                        }
                    }
                    let shipped = batch.len() as u64;
                    if writer.is_none() {
                        // Transient resolution faults are retried here;
                        // non-transient ones (unknown topic) give up
                        // immediately so a misdirected producer never
                        // stalls its queue.
                        writer = crate::retry::with_retry(&retry, || {
                            bus.partition_writer(&topic, partition)
                        })
                        .ok()
                        .map(|w| w.idempotent().with_retry(retry.clone()));
                    }
                    // Failures (unknown topic) drop the batch, like a
                    // fire-and-forget client; pending still decreases so
                    // flush cannot hang. The idempotent writer retries
                    // transient faults itself and dedups lost-ack resends.
                    if let Some(w) = &writer {
                        if w.produce_batch_drain(&mut batch).is_err() {
                            batch.clear();
                        }
                    } else {
                        batch.clear();
                    }
                    crate::pool::recycle_record_vec(batch);
                    let remaining = pending_worker.fetch_sub(shipped, Ordering::AcqRel) - shipped;
                    if obs::enabled() {
                        crate::telemetry::async_queue_depth().set(remaining as i64);
                    }
                }
            })
            .expect("spawn async producer thread");
        AsyncProducer {
            sender: Some(sender),
            worker: Some(worker),
            max_batch,
            pending,
        }
    }

    /// Queues one record. Does not wait for the broker unless the client
    /// queue is full.
    pub fn send(&self, record: Record) {
        if let Some(sender) = &self.sender {
            let queued = self.pending.fetch_add(1, Ordering::AcqRel) + 1;
            if sender.send(Queued::One(record)).is_err() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
            } else if obs::enabled() {
                crate::telemetry::async_queue_depth().set(queued as i64);
            }
        }
    }

    /// Queues a whole batch, draining `records` (capacity kept for reuse).
    ///
    /// One channel message and one pending-count update cover the entire
    /// batch; batches larger than the producer's maximum batch size are
    /// split so no single append exceeds it.
    pub fn send_batch(&self, records: &mut Vec<Record>) {
        if records.is_empty() {
            return;
        }
        let Some(sender) = &self.sender else {
            records.clear();
            return;
        };
        let total = records.len() as u64;
        self.pending.fetch_add(total, Ordering::AcqRel);
        let mut shipped = 0u64;
        while !records.is_empty() {
            let take = records.len().min(self.max_batch);
            let mut chunk = crate::pool::record_vec();
            chunk.extend(records.drain(..take));
            let len = chunk.len() as u64;
            if sender.send(Queued::Many(chunk)).is_err() {
                self.pending.fetch_sub(total - shipped, Ordering::AcqRel);
                records.clear();
                return;
            }
            shipped += len;
        }
        if obs::enabled() {
            crate::telemetry::async_queue_depth().set(self.pending.load(Ordering::Acquire) as i64);
        }
    }

    /// Records accepted but not yet appended.
    pub fn in_flight(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Blocks until every record sent so far has been appended, or until
    /// the sender thread has finished: a worker that died with records
    /// still queued can never ship them, so waiting longer would hang.
    pub fn flush(&self) {
        while self.in_flight() > 0 && self.worker.as_ref().is_some_and(|w| !w.is_finished()) {
            std::thread::yield_now();
        }
    }

    /// Flushes and shuts the sender thread down.
    pub fn close(&mut self) {
        self.flush();
        self.sender.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for AsyncProducer {
    fn drop(&mut self) {
        // Best-effort drain (C-DTOR-FAIL: never fails, at worst waits).
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::config::TopicConfig;

    #[test]
    fn rides_through_leader_failover_on_a_cluster() {
        let cluster = crate::Cluster::new(crate::ClusterConfig { brokers: 3 });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(3))
            .unwrap();
        let mut producer = AsyncProducer::with_max_batch(cluster.clone(), "t", 0, 32);
        for i in 0..200 {
            producer.send(Record::from_value(format!("r{i}")));
            if i == 100 {
                producer.flush();
                let leader = cluster.leader_of("t", 0).unwrap();
                cluster.kill_broker(leader);
            }
        }
        producer.close();
        assert!(cluster.leader_epoch("t", 0).unwrap() >= 1);
        let records = cluster.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 200, "exactly-once across the leader kill");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn sends_everything_in_order() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::new(broker.clone(), "t", 0);
        for i in 0..1_000 {
            producer.send(Record::from_value(format!("r{i}")));
        }
        producer.close();
        let records = broker.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 1_000);
        for (i, stored) in records.iter().enumerate() {
            let expected = format!("r{i}");
            assert_eq!(&stored.record.value[..], expected.as_bytes());
        }
    }

    #[test]
    fn adaptive_batching_under_latency() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        broker.set_request_latency_micros(500);
        let mut producer = AsyncProducer::new(broker.clone(), "t", 0);
        let start = std::time::Instant::now();
        for i in 0..2_000 {
            producer.send(Record::from_value(format!("r{i}")));
        }
        producer.close();
        // 2000 records; adaptive batches amortize the 0.5ms round trips:
        // far fewer than 2000 requests (which would take a full second).
        assert!(start.elapsed() < std::time::Duration::from_millis(500));
        let records = broker.fetch("t", 0, 0, 2_000).unwrap();
        let stamps: std::collections::BTreeSet<i64> =
            records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert!(
            stamps.len() < 100,
            "adaptive batches, got {} appends",
            stamps.len()
        );
        assert!(stamps.len() > 1, "but more than one append");
    }

    #[test]
    fn flush_per_record_degenerates_to_sync() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        broker.set_request_latency_micros(200);
        let mut producer = AsyncProducer::new(broker.clone(), "t", 0);
        let start = std::time::Instant::now();
        for i in 0..50 {
            producer.send(Record::from_value(format!("r{i}")));
            producer.flush();
        }
        // 50 × 200µs of serialized round trips.
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
        producer.close();
        let records = broker.fetch("t", 0, 0, 50).unwrap();
        let stamps: std::collections::BTreeSet<i64> =
            records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert_eq!(
            stamps.len(),
            50,
            "per-record flush means per-record appends"
        );
    }

    #[test]
    fn send_batch_preserves_order_and_reuses_buffer() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 100);
        let mut buffer = Vec::new();
        for round in 0..4 {
            for i in 0..250 {
                buffer.push(Record::from_value(format!("r{}", round * 250 + i)));
            }
            producer.send_batch(&mut buffer);
            assert!(buffer.is_empty(), "the batch must be drained");
        }
        producer.close();
        let records = broker.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 1_000);
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn send_batch_splits_oversized_batches() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 10);
        let mut buffer: Vec<Record> = (0..35)
            .map(|i| Record::from_value(format!("{i}")))
            .collect();
        producer.send_batch(&mut buffer);
        producer.close();
        let records = broker.fetch("t", 0, 0, 35).unwrap();
        assert_eq!(records.len(), 35);
        let stamps: std::collections::BTreeSet<i64> =
            records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert!(stamps.len() >= 2, "the batch was split into capped appends");
    }

    #[test]
    fn faulted_broker_loses_nothing_and_duplicates_nothing() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut plan = crate::FaultPlan::seeded(41);
        plan.produce_error = 0.3;
        plan.ack_loss = 0.3;
        plan.duplicate = 0.0;
        plan.fetch_error = 0.0;
        plan.metadata_error = 0.3;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 16);
        for i in 0..400 {
            producer.send(Record::from_value(format!("r{i}")));
        }
        producer.close();
        broker.clear_fault_plan();
        let records = broker.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 400, "exactly-once despite lost acks");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn unknown_topic_does_not_hang_flush() {
        let broker = Broker::new();
        let mut producer = AsyncProducer::new(broker, "missing", 0);
        producer.send(Record::from_value("x"));
        producer.close();
    }

    #[test]
    fn flush_returns_when_the_worker_is_gone() {
        // A sender thread that exits with a record still counted as
        // pending (as one that panicked mid-batch would).
        let (sender, receiver) = bounded::<Queued>(1);
        let worker = std::thread::spawn(move || drop(receiver));
        let mut producer = AsyncProducer {
            sender: Some(sender),
            worker: Some(worker),
            max_batch: 1,
            pending: Arc::new(AtomicU64::new(1)),
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            producer.flush();
            producer.close();
            let _ = done_tx.send(producer.in_flight());
        });
        let stranded = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("flush must stop waiting once the worker has finished");
        assert_eq!(stranded, 1, "the stranded record is still reported");
    }

    #[test]
    fn drop_drains() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        {
            let producer = AsyncProducer::new(broker.clone(), "t", 0);
            producer.send(Record::from_value("x"));
        }
        assert_eq!(broker.latest_offset("t", 0).unwrap(), 1);
    }
}
