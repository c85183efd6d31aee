//! MPSC channels with the `crossbeam::channel` surface, over
//! `std::sync::mpsc`. Every channel is bounded: a full channel blocks
//! `send` and fails `try_send`, which is the backpressure contract the
//! ingest pipelines rely on. There is no `unbounded()` constructor.

use std::fmt;
use std::sync::mpsc;

/// Error returned when sending on a channel whose receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`] when the value cannot be
/// handed off immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is bounded and currently at capacity; the value is
    /// returned so the caller can shed or retry.
    Full(T),
    /// The receiver has been dropped; the value is returned.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// The value that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(v) | Self::Disconnected(v) => v,
        }
    }

    /// Whether the failure was a full (not disconnected) channel.
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, Self::Full(_))
    }
}

/// Error returned when receiving on an empty, disconnected channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// The sending half of a channel. Cloneable (multi-producer).
pub struct Sender<T> {
    tx: mpsc::SyncSender<T>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while the channel is full.
    ///
    /// # Errors
    /// Returns the value back when the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.tx.send(value).map_err(|e| SendError(e.0))
    }

    /// Sends `value` without blocking: on a full channel the value comes
    /// straight back as [`TrySendError::Full`] (the load-shedding
    /// primitive).
    ///
    /// # Errors
    /// [`TrySendError::Full`] when the channel is at capacity,
    /// [`TrySendError::Disconnected`] when the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.tx.try_send(value).map_err(|e| match e {
            mpsc::TrySendError::Full(v) => TrySendError::Full(v),
            mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
        })
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

/// The receiving half of a channel (single consumer).
pub struct Receiver<T> {
    rx: mpsc::Receiver<T>,
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value arrives.
    ///
    /// # Errors
    /// Returns an error when the channel is empty and all senders dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.rx.recv().map_err(|_| RecvError)
    }

    /// A blocking iterator over received values, ending when all senders
    /// are dropped.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.rx.iter()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = mpsc::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.rx.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = mpsc::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.rx.iter()
    }
}

/// Creates a bounded channel with capacity `cap`; senders block when full.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(cap);
    (Sender { tx }, Receiver { rx })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_roundtrip_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.into_iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn cross_thread_backpressure() {
        let (tx, rx) = bounded::<u64>(2);
        let sum = crate::thread::scope(|scope| {
            scope.spawn(move |_| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            rx.iter().sum::<u64>()
        })
        .expect("join");
        assert_eq!(sum, 99 * 100 / 2);
    }

    #[test]
    fn try_send_distinguishes_full_from_disconnected() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        let err = tx.try_send(2).unwrap_err();
        assert!(err.is_full());
        assert_eq!(err.into_inner(), 2);
        drop(rx);
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
    }

    #[test]
    fn multiple_producers() {
        let (tx, rx) = bounded::<u64>(2);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.into_iter().sum::<u64>(), 3);
    }
}
