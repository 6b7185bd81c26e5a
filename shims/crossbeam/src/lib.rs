//! Offline shim for the `crossbeam::channel` API subset used by this
//! workspace: multi-producer multi-consumer channels with optional
//! capacity bounds, cloneable receivers, and disconnect semantics.
//!
//! Like crossbeam's `SyncWaker`, a send or receive wakes the other side
//! only when a thread is parked there. Parked threads are counted under
//! the channel mutex, so an uncontended handoff costs one lock and no
//! futex wake syscall.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders have disconnected.
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers parked on `not_empty`.
        recv_waiters: usize,
        /// Senders parked on `not_full`.
        send_waiters: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: Option<usize>,
    }

    /// The sending half of a channel. Cloneable.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel. Cloneable: each message is
    /// delivered to exactly one receiver.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates a channel with a capacity bound; sends block when full.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(capacity))
    }

    /// Creates a channel without a capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    fn new_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiters: 0,
                send_waiters: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full.
        /// Returns the value if every receiver has disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.state.lock().expect("channel lock");
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.chan.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state.send_waiters += 1;
                        state = self.chan.not_full.wait(state).expect("channel lock");
                        state.send_waiters -= 1;
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            let wake = state.recv_waiters > 0;
            drop(state);
            if wake {
                self.chan.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next message, blocking until one is available.
        /// Errors when the channel is empty and all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.state.lock().expect("channel lock");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    self.popped(state);
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.recv_waiters += 1;
                state = self.chan.not_empty.wait(state).expect("channel lock");
                state.recv_waiters -= 1;
            }
        }

        /// Receives the next message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.state.lock().expect("channel lock");
            if let Some(value) = state.queue.pop_front() {
                self.popped(state);
                return Ok(value);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Releases the lock after a pop, then wakes one parked sender
        /// if there is one: the pop freed a slot.
        fn popped(&self, state: MutexGuard<'_, State<T>>) {
            let wake = state.send_waiters > 0;
            drop(state);
            if wake {
                self.chan.not_full.notify_one();
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.state.lock().expect("channel lock").queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    impl<T> Sender<T> {
        /// Threads parked on the channel: `(receivers, senders)`.
        pub(crate) fn parked(&self) -> (usize, usize) {
            let state = self.chan.state.lock().expect("channel lock");
            (state.recv_waiters, state.send_waiters)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().expect("channel lock").senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().expect("channel lock").receivers += 1;
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().expect("channel lock");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().expect("channel lock");
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.chan.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvError, SendError, TryRecvError};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// How long a woken thread may take before the test fails. Generous:
    /// a lost wake-up never arrives, a slow one does.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// Runs `f` on its own thread and returns a handle to its result, so
    /// a thread stuck on a lost wake-up fails the test instead of hanging
    /// it.
    fn watched<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> mpsc::Receiver<R> {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(f());
        });
        done_rx
    }

    fn within_deadline<R>(done: &mpsc::Receiver<R>, what: &str) -> R {
        match done.recv_timeout(DEADLINE) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: not woken within {DEADLINE:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: thread panicked"),
        }
    }

    /// Waits until `parked()` reports `want` `(receivers, senders)`.
    fn await_parked(parked: impl Fn() -> (usize, usize), want: (usize, usize)) {
        let start = Instant::now();
        while parked() != want {
            assert!(
                start.elapsed() < DEADLINE,
                "never parked: {:?} != {want:?}",
                parked()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn roundtrip_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let handle = std::thread::spawn(move || tx.send(3));
        assert_eq!(rx.recv(), Ok(1));
        assert!(handle.join().unwrap().is_ok());
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn try_recv_reports_state() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn cloned_receivers_compete() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        tx.send("a").unwrap();
        tx.send("b").unwrap();
        drop(tx);
        let mut got = vec![rx1.recv().unwrap(), rx2.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec!["a", "b"]);
        assert!(rx1.recv().is_err());
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = bounded(16);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0u64;
        while let Ok(v) = rx.recv() {
            sum += v;
        }
        producer.join().unwrap();
        assert_eq!(sum, 10_000 * 9_999 / 2);
    }

    #[test]
    fn parked_receiver_is_woken_by_send() {
        let (tx, rx) = unbounded::<u32>();
        let done = watched(move || rx.recv());
        await_parked(|| tx.parked(), (1, 0));
        tx.send(7).unwrap();
        assert_eq!(within_deadline(&done, "parked recv"), Ok(7));
        assert_eq!(tx.parked(), (0, 0));
    }

    #[test]
    fn parked_sender_is_woken_by_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let probe = tx.clone();
        let done = watched(move || tx.send(2));
        await_parked(|| probe.parked(), (0, 1));
        assert_eq!(rx.recv(), Ok(1));
        assert!(within_deadline(&done, "sender parked on full").is_ok());
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn parked_sender_is_woken_by_try_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let probe = tx.clone();
        let done = watched(move || tx.send(2));
        await_parked(|| probe.parked(), (0, 1));
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(within_deadline(&done, "sender parked on full").is_ok());
        assert_eq!(rx.try_recv(), Ok(2));
    }

    #[test]
    fn mpmc_stress_delivers_every_message_once() {
        const SENDERS: u64 = 4;
        const PER_SENDER: u64 = 5_000;
        for capacity in [1, 4] {
            let done = watched(move || {
                let (tx, rx) = bounded::<u64>(capacity);
                let receivers: Vec<_> = (0..2)
                    .map(|_| {
                        let rx = rx.clone();
                        std::thread::spawn(move || {
                            let mut got = Vec::new();
                            while let Ok(v) = rx.recv() {
                                got.push(v);
                            }
                            got
                        })
                    })
                    .collect();
                drop(rx);
                let senders: Vec<_> = (0..SENDERS)
                    .map(|s| {
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            for i in 0..PER_SENDER {
                                tx.send(s * PER_SENDER + i).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                for sender in senders {
                    sender.join().unwrap();
                }
                let mut all: Vec<u64> = receivers
                    .into_iter()
                    .flat_map(|r| r.join().unwrap())
                    .collect();
                all.sort_unstable();
                all
            });
            let all = within_deadline(&done, &format!("mpmc stress, bounded({capacity})"));
            assert_eq!(
                all,
                (0..SENDERS * PER_SENDER).collect::<Vec<_>>(),
                "bounded({capacity}): every message exactly once"
            );
        }
    }

    #[test]
    fn last_sender_drop_wakes_parked_receiver() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let done = watched(move || rx.recv());
        await_parked(|| tx.parked(), (1, 0));
        drop(tx2);
        assert_eq!(tx.parked(), (1, 0), "a sender remains: still parked");
        drop(tx);
        assert_eq!(
            within_deadline(&done, "recv after disconnect"),
            Err(RecvError)
        );
    }

    #[test]
    fn last_receiver_drop_wakes_parked_sender() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let rx2 = rx.clone();
        let probe = tx.clone();
        let done = watched(move || tx.send(2));
        await_parked(|| probe.parked(), (0, 1));
        drop(rx2);
        assert_eq!(probe.parked(), (0, 1), "a receiver remains: still parked");
        drop(rx);
        assert_eq!(
            within_deadline(&done, "send after disconnect"),
            Err(SendError(2))
        );
    }
}
