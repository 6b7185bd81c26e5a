//! Window-framed streams between operators.
//!
//! Inside a container, fused (`ThreadLocal`) streams are direct nested
//! calls. Between threads and containers, tuples travel as window-framed
//! messages through a [`BufferServer`]; on cross-container streams every
//! tuple additionally passes its [`Codec`](crate::Codec) — bytes in, bytes
//! out — which is Apex's buffer-server serialization.

use crate::codec::Codec;
use crate::operator::{Emitter, Operator, OperatorContext};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Capacity of buffer-server queues, providing backpressure.
const BUFFER_CAPACITY: usize = 4096;

/// The runtime face of an operator chain segment: window markers and
/// tuples flow in, and eventually `end_stream` terminates it.
pub trait FrameSink<T>: Send {
    /// Start of a streaming window.
    fn begin_window(&mut self, window_id: u64);

    /// One tuple.
    fn tuple(&mut self, tuple: T);

    /// A whole batch of tuples within the current window, draining
    /// `tuples` (capacity kept so callers reuse the buffer). The default
    /// forwards tuple by tuple; batching sinks override it to move the
    /// batch on whole — one virtual call, one count update per batch.
    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        for tuple in tuples.drain(..) {
            self.tuple(tuple);
        }
    }

    /// End of a streaming window.
    fn end_window(&mut self, window_id: u64);

    /// End of the bounded stream; flush and tear down.
    fn end_stream(&mut self);
}

impl<T, S: FrameSink<T> + ?Sized> FrameSink<T> for Box<S> {
    fn begin_window(&mut self, window_id: u64) {
        (**self).begin_window(window_id);
    }

    fn tuple(&mut self, tuple: T) {
        (**self).tuple(tuple);
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        (**self).tuple_batch(tuples);
    }

    fn end_window(&mut self, window_id: u64) {
        (**self).end_window(window_id);
    }

    fn end_stream(&mut self) {
        (**self).end_stream();
    }
}

/// Wraps a user [`Operator`] and its downstream sink into a `FrameSink`,
/// propagating window markers and counting emitted tuples.
pub struct OperatorSink<I, O, Op, S> {
    op: Op,
    downstream: S,
    emitted: Arc<AtomicU64>,
    /// `(records_in, busy_micros)` instruments, resolved at launch only
    /// when instrumentation is enabled so the disabled path records
    /// nothing per tuple.
    instruments: Option<(obs::Counter, obs::Counter)>,
    /// Reused output buffer for the batch path.
    scratch: Vec<O>,
    _types: std::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, Op, S> OperatorSink<I, O, Op, S>
where
    Op: Operator<I, O>,
    S: FrameSink<O>,
{
    /// Creates the wrapper and runs the operator's `setup`.
    pub fn new(mut op: Op, ctx: &OperatorContext, downstream: S, emitted: Arc<AtomicU64>) -> Self {
        op.setup(ctx);
        let instruments = if obs::enabled() {
            Some((
                obs::counter(&format!("apx.op.{}.records_in", ctx.name)),
                obs::counter(&format!("apx.op.{}.busy_micros", ctx.name)),
            ))
        } else {
            None
        };
        OperatorSink {
            op,
            downstream,
            emitted,
            instruments,
            scratch: Vec::new(),
            _types: std::marker::PhantomData,
        }
    }
}

/// Emitter collecting an operator's output into a reusable buffer (the
/// batch path: counts and forwarding happen once per batch, afterwards).
struct VecEmitter<'a, O> {
    out: &'a mut Vec<O>,
}

impl<O> Emitter<O> for VecEmitter<'_, O> {
    fn emit(&mut self, tuple: O) {
        self.out.push(tuple);
    }
}

/// Emitter adapter forwarding into a `FrameSink` as plain tuples.
struct SinkEmitter<'a, O, S: FrameSink<O>> {
    sink: &'a mut S,
    emitted: &'a AtomicU64,
    _type: std::marker::PhantomData<fn(O)>,
}

impl<O, S: FrameSink<O>> Emitter<O> for SinkEmitter<'_, O, S> {
    fn emit(&mut self, tuple: O) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        self.sink.tuple(tuple);
    }
}

impl<I, O, Op, S> FrameSink<I> for OperatorSink<I, O, Op, S>
where
    I: Send,
    O: Send,
    Op: Operator<I, O>,
    S: FrameSink<O>,
{
    fn begin_window(&mut self, window_id: u64) {
        self.op.begin_window(window_id);
        self.downstream.begin_window(window_id);
    }

    fn tuple(&mut self, tuple: I) {
        let mut emitter = SinkEmitter {
            sink: &mut self.downstream,
            emitted: &self.emitted,
            _type: std::marker::PhantomData,
        };
        match &self.instruments {
            Some((records_in, busy)) => {
                records_in.inc();
                let started = std::time::Instant::now();
                self.op.process(tuple, &mut emitter);
                busy.add(started.elapsed().as_micros() as u64);
            }
            None => self.op.process(tuple, &mut emitter),
        }
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<I>) {
        let op = &mut self.op;
        let mut emitter = VecEmitter {
            out: &mut self.scratch,
        };
        match &self.instruments {
            Some((records_in, busy)) => {
                records_in.add(tuples.len() as u64);
                let started = std::time::Instant::now();
                for tuple in tuples.drain(..) {
                    op.process(tuple, &mut emitter);
                }
                busy.add(started.elapsed().as_micros() as u64);
            }
            None => {
                for tuple in tuples.drain(..) {
                    op.process(tuple, &mut emitter);
                }
            }
        }
        self.emitted
            .fetch_add(self.scratch.len() as u64, Ordering::Relaxed);
        self.downstream.tuple_batch(&mut self.scratch);
    }

    fn end_window(&mut self, window_id: u64) {
        let mut emitter = SinkEmitter {
            sink: &mut self.downstream,
            emitted: &self.emitted,
            _type: std::marker::PhantomData,
        };
        self.op.end_window(window_id, &mut emitter);
        self.downstream.end_window(window_id);
    }

    fn end_stream(&mut self) {
        self.op.teardown();
        self.downstream.end_stream();
    }
}

/// A window-framed message on a buffer-server queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<P> {
    /// Start of window.
    Begin(u64),
    /// Payload tuple (typed for thread/container-local streams, encoded
    /// bytes for cross-container streams).
    Tuple(P),
    /// End of window.
    End(u64),
    /// End of stream.
    Eos,
}

/// Statistics of one buffer-server stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Tuples published.
    pub tuples: u64,
    /// Bytes published (0 for unserialized local streams).
    pub bytes: u64,
}

/// The per-stream pub/sub conduit (Apex's buffer server, reduced to the
/// single-subscriber case the benchmark topologies need).
#[derive(Debug)]
pub struct BufferServer<P> {
    sender: Option<Sender<Frame<P>>>,
    receiver: Receiver<Frame<P>>,
    tuples: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl<P: Send> BufferServer<P> {
    /// Creates a stream conduit.
    pub fn new() -> Self {
        let (sender, receiver) = bounded(BUFFER_CAPACITY);
        BufferServer {
            sender: Some(sender),
            receiver,
            tuples: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The publishing half. Single-publisher: the server hands it out
    /// once, so an abandoned publisher reliably disconnects the stream.
    ///
    /// # Panics
    ///
    /// Panics when called twice.
    pub fn publisher(&mut self) -> Publisher<P> {
        Publisher {
            sender: Some(self.sender.take().expect("publisher already taken")),
            tuples: self.tuples.clone(),
            bytes: self.bytes.clone(),
        }
    }

    /// The subscribing half.
    pub fn subscriber(&self) -> Receiver<Frame<P>> {
        self.receiver.clone()
    }

    /// Stream statistics so far.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            tuples: self.tuples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl<P: Send> Default for BufferServer<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Publishing half of a buffer-server stream.
#[derive(Debug)]
pub struct Publisher<P> {
    sender: Option<Sender<Frame<P>>>,
    tuples: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl<P: Send> Publisher<P> {
    fn send(&mut self, frame: Frame<P>) {
        if let Some(sender) = &self.sender {
            // A dropped subscriber (downstream container failure) turns
            // the stream into a sink-hole rather than deadlocking.
            let _ = sender.send(frame);
        }
    }
}

/// Typed (thread/container-local) publisher: no serialization.
impl<T: Send> FrameSink<T> for Publisher<T> {
    fn begin_window(&mut self, window_id: u64) {
        self.send(Frame::Begin(window_id));
    }

    fn tuple(&mut self, tuple: T) {
        self.tuples.fetch_add(1, Ordering::Relaxed);
        self.send(Frame::Tuple(tuple));
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        // One stats update per batch; frames stay per-tuple so the
        // wire protocol (and downstream pipelining) is unchanged.
        self.tuples
            .fetch_add(tuples.len() as u64, Ordering::Relaxed);
        for tuple in tuples.drain(..) {
            self.send(Frame::Tuple(tuple));
        }
    }

    fn end_window(&mut self, window_id: u64) {
        self.send(Frame::End(window_id));
    }

    fn end_stream(&mut self) {
        self.send(Frame::Eos);
        self.sender = None;
    }
}

/// Encoding publisher for cross-container streams: every tuple is
/// serialized through the stream's codec.
pub struct EncodingPublisher<T> {
    inner: Publisher<Vec<u8>>,
    codec: Arc<dyn Codec<T>>,
}

impl<T> EncodingPublisher<T> {
    /// Wraps a byte publisher with a codec.
    pub fn new(inner: Publisher<Vec<u8>>, codec: Arc<dyn Codec<T>>) -> Self {
        EncodingPublisher { inner, codec }
    }
}

impl<T: Send + 'static> FrameSink<T> for EncodingPublisher<T> {
    fn begin_window(&mut self, window_id: u64) {
        self.inner.begin_window(window_id);
    }

    fn tuple(&mut self, tuple: T) {
        let encoded = self.codec.encode(&tuple);
        self.inner
            .bytes
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        self.inner.tuple(encoded);
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        // Every tuple still pays the codec (the modeled buffer-server
        // serialization); only the stats updates are amortized.
        let mut bytes = 0u64;
        let count = tuples.len() as u64;
        for tuple in tuples.drain(..) {
            let encoded = self.codec.encode(&tuple);
            bytes += encoded.len() as u64;
            self.inner.send(Frame::Tuple(encoded));
        }
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.tuples.fetch_add(count, Ordering::Relaxed);
    }

    fn end_window(&mut self, window_id: u64) {
        self.inner.end_window(window_id);
    }

    fn end_stream(&mut self) {
        self.inner.end_stream();
    }
}

/// Drains a subscriber into a frame sink, mapping every payload to a
/// tuple (identity on typed streams, the codec's decode on encoded ones);
/// returns when the stream ends. This is the body of a downstream
/// container's event loop.
///
/// Tuples already waiting in the queue are gathered opportunistically and
/// handed downstream as one batch — an idle consumer still processes a
/// lone tuple immediately (the blocking `recv` is per frame), but a busy
/// stream amortizes the chain traversal over whole batches.
pub fn drain<P: Send, T: Send>(
    rx: &Receiver<Frame<P>>,
    sink: &mut dyn FrameSink<T>,
    mut to_tuple: impl FnMut(P) -> T,
) {
    let mut batch: Vec<T> = Vec::new();
    let mut pending: Option<Frame<P>> = None;
    loop {
        let frame = match pending.take() {
            Some(frame) => frame,
            None => match rx.recv() {
                Ok(frame) => frame,
                Err(_) => break,
            },
        };
        match frame {
            Frame::Begin(w) => sink.begin_window(w),
            Frame::Tuple(p) => {
                batch.push(to_tuple(p));
                while let Ok(next) = rx.try_recv() {
                    match next {
                        Frame::Tuple(p) => batch.push(to_tuple(p)),
                        other => {
                            pending = Some(other);
                            break;
                        }
                    }
                }
                sink.tuple_batch(&mut batch);
            }
            Frame::End(w) => sink.end_window(w),
            Frame::Eos => {
                sink.end_stream();
                return;
            }
        }
    }
    // Publisher vanished without EOS (upstream container died): still
    // close the chain so resources flush.
    sink.end_stream();
}

/// Terminal sink collecting tuples, for tests.
#[derive(Debug, Default)]
pub struct CollectingSink<T> {
    /// Collected tuples.
    pub items: Vec<T>,
    /// Number of (begin, end) window markers seen.
    pub windows: (u64, u64),
    /// Whether the stream ended.
    pub ended: bool,
}

impl<T: Send> FrameSink<T> for CollectingSink<T> {
    fn begin_window(&mut self, _window_id: u64) {
        self.windows.0 += 1;
    }

    fn tuple(&mut self, tuple: T) {
        self.items.push(tuple);
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        self.items.append(tuples);
    }

    fn end_window(&mut self, _window_id: u64) {
        self.windows.1 += 1;
    }

    fn end_stream(&mut self) {
        self.ended = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StringCodec;
    use crate::operator::FnOperator;

    fn drain_typed<T: Send>(rx: &Receiver<Frame<T>>, sink: &mut dyn FrameSink<T>) {
        drain(rx, sink, |t| t);
    }

    fn drain_encoded<T: Send + 'static>(
        rx: &Receiver<Frame<Vec<u8>>>,
        codec: &dyn Codec<T>,
        sink: &mut dyn FrameSink<T>,
    ) {
        drain(rx, sink, |bytes| codec.decode(&bytes));
    }

    #[test]
    fn operator_sink_propagates_windows() {
        let collector = CollectingSink::default();
        let emitted = Arc::new(AtomicU64::new(0));
        let op = FnOperator::new(|t: i64, out: &mut dyn Emitter<i64>| {
            if t > 0 {
                out.emit(t * 2);
            }
        });
        let ctx = OperatorContext {
            name: "x".into(),
            window_size: 10,
        };
        let mut sink = OperatorSink::new(op, &ctx, collector, emitted.clone());
        sink.begin_window(0);
        sink.tuple(-1);
        sink.tuple(5);
        sink.end_window(0);
        sink.end_stream();
        assert_eq!(emitted.load(Ordering::Relaxed), 1);
        assert_eq!(sink.downstream.items, vec![10]);
        assert_eq!(sink.downstream.windows, (1, 1));
        assert!(sink.downstream.ended);
    }

    #[test]
    fn operator_sink_processes_whole_batches() {
        let collector = CollectingSink::default();
        let emitted = Arc::new(AtomicU64::new(0));
        let op = FnOperator::new(|t: i64, out: &mut dyn Emitter<i64>| {
            if t % 2 == 0 {
                out.emit(t * 10);
            }
        });
        let ctx = OperatorContext {
            name: "batch".into(),
            window_size: 10,
        };
        let mut sink = OperatorSink::new(op, &ctx, collector, emitted.clone());
        sink.begin_window(0);
        let mut batch: Vec<i64> = (0..6).collect();
        sink.tuple_batch(&mut batch);
        assert!(batch.is_empty(), "the batch must be drained");
        sink.end_window(0);
        sink.end_stream();
        assert_eq!(emitted.load(Ordering::Relaxed), 3, "exact emitted count");
        assert_eq!(sink.downstream.items, vec![0, 20, 40]);
    }

    #[test]
    fn typed_buffer_roundtrip() {
        let mut server: BufferServer<i64> = BufferServer::new();
        let mut publisher = server.publisher();
        let rx = server.subscriber();
        let handle = std::thread::spawn(move || {
            publisher.begin_window(1);
            for i in 0..10 {
                publisher.tuple(i);
            }
            publisher.end_window(1);
            publisher.end_stream();
        });
        let mut sink = CollectingSink::default();
        drain_typed(&rx, &mut sink);
        handle.join().unwrap();
        assert_eq!(sink.items, (0..10).collect::<Vec<i64>>());
        assert_eq!(sink.windows, (1, 1));
        assert!(sink.ended);
        assert_eq!(server.stats().tuples, 10);
        assert_eq!(server.stats().bytes, 0, "typed streams do not serialize");
    }

    #[test]
    fn encoded_buffer_roundtrip_counts_bytes() {
        let mut server: BufferServer<Vec<u8>> = BufferServer::new();
        let mut publisher = EncodingPublisher::new(server.publisher(), Arc::new(StringCodec));
        let rx = server.subscriber();
        publisher.begin_window(0);
        publisher.tuple("ab".to_string());
        publisher.tuple("cde".to_string());
        publisher.end_window(0);
        publisher.end_stream();
        let mut sink = CollectingSink::default();
        drain_encoded(&rx, &StringCodec, &mut sink);
        assert_eq!(sink.items, vec!["ab".to_string(), "cde".to_string()]);
        assert_eq!(server.stats().bytes, 5);
    }

    #[test]
    fn missing_eos_still_closes() {
        let mut server: BufferServer<i64> = BufferServer::new();
        let mut publisher = server.publisher();
        let rx = server.subscriber();
        publisher.begin_window(0);
        publisher.tuple(1);
        drop(publisher);
        let mut sink = CollectingSink::default();
        drain_typed(&rx, &mut sink);
        assert!(sink.ended, "chain must close when the publisher disappears");
        assert_eq!(sink.items, vec![1]);
    }
}
