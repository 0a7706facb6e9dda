//! Publisher/subscriber topics.
//!
//! MAVBench applications are ROS graphs: nodes communicate over latched
//! topics (latest value wins, e.g. the occupancy map) and FIFO topics (every
//! message is consumed exactly once, e.g. collision events). Both flavours are
//! provided here with cheaply clonable handles so nodes can hold their
//! endpoints independently. A graph is built, driven and dropped on one
//! thread, as under ROS 2's default single-threaded executor, so a handle is
//! a shared [`Cell`]: no lock, and the compiler keeps it on its thread.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// A latched topic: subscribers always observe the most recent message.
///
/// # Example
///
/// ```
/// use mav_runtime::Topic;
/// let topic: Topic<u32> = Topic::new("altitude");
/// topic.publish(5);
/// topic.publish(7);
/// assert_eq!(topic.latest(), Some(7));
/// assert_eq!(topic.sequence(), 2);
/// ```
pub struct Topic<T> {
    name: &'static str,
    inner: Rc<Latched<T>>,
}

struct Latched<T> {
    latest: Cell<Option<T>>,
    sequence: Cell<u64>,
}

impl<T: Clone> Topic<T> {
    /// Creates an empty topic with the given name.
    pub fn new(name: &'static str) -> Self {
        Topic {
            name,
            inner: Rc::new(Latched {
                latest: Cell::new(None),
                sequence: Cell::new(0),
            }),
        }
    }

    /// The topic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Publishes a message, replacing the previous one.
    pub fn publish(&self, message: T) {
        self.inner.latest.set(Some(message));
        self.inner.sequence.set(self.inner.sequence.get() + 1);
    }

    /// The most recent message, if any has been published.
    pub fn latest(&self) -> Option<T> {
        let latest = self.inner.latest.take();
        let copy = latest.clone();
        self.inner.latest.set(latest);
        copy
    }

    /// Number of messages published so far.
    pub fn sequence(&self) -> u64 {
        self.inner.sequence.get()
    }

    /// Returns `true` if at least one message has been published.
    pub fn has_message(&self) -> bool {
        self.sequence() > 0
    }
}

impl<T> Clone for Topic<T> {
    fn clone(&self) -> Self {
        Topic {
            name: self.name,
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for Topic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topic").field("name", &self.name).finish()
    }
}

/// A FIFO topic: every message is delivered once, in order.
///
/// # Example
///
/// ```
/// use mav_runtime::FifoTopic;
/// let queue: FifoTopic<&str> = FifoTopic::new("collisions");
/// queue.publish("near-miss");
/// queue.publish("impact");
/// assert_eq!(queue.drain(), vec!["near-miss", "impact"]);
/// assert!(queue.drain().is_empty());
/// ```
pub struct FifoTopic<T> {
    name: &'static str,
    queue: Rc<Cell<Vec<T>>>,
}

impl<T> FifoTopic<T> {
    /// Creates an empty FIFO topic with the given name.
    pub fn new(name: &'static str) -> Self {
        FifoTopic {
            name,
            queue: Rc::new(Cell::new(Vec::new())),
        }
    }

    /// The topic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Appends a message to the queue.
    pub fn publish(&self, message: T) {
        let mut queue = self.queue.take();
        queue.push(message);
        self.queue.set(queue);
    }

    /// Removes and returns all queued messages in publication order.
    pub fn drain(&self) -> Vec<T> {
        self.queue.take()
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        let queue = self.queue.take();
        let len = queue.len();
        self.queue.set(queue);
        len
    }

    /// Returns `true` when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for FifoTopic<T> {
    fn clone(&self) -> Self {
        FifoTopic {
            name: self.name,
            queue: Rc::clone(&self.queue),
        }
    }
}

impl<T> fmt::Debug for FifoTopic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FifoTopic")
            .field("name", &self.name)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latched_topic_keeps_latest_only() {
        let t: Topic<i32> = Topic::new("t");
        assert!(t.latest().is_none());
        assert!(!t.has_message());
        t.publish(1);
        t.publish(2);
        t.publish(3);
        assert_eq!(t.latest(), Some(3));
        assert_eq!(t.sequence(), 3);
        assert!(t.has_message());
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn cloned_handles_share_state() {
        let a: Topic<String> = Topic::new("shared");
        let b = a.clone();
        a.publish("hello".to_string());
        assert_eq!(b.latest().as_deref(), Some("hello"));
        b.publish("world".to_string());
        assert_eq!(a.latest().as_deref(), Some("world"));
        assert_eq!(a.sequence(), 2);
    }

    #[test]
    fn fifo_preserves_order_and_drains() {
        let q: FifoTopic<u8> = FifoTopic::new("q");
        assert!(q.is_empty());
        for i in 0..5 {
            q.publish(i);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.drain(), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", Topic::<u8>::new("a")).is_empty());
        assert!(!format!("{:?}", FifoTopic::<u8>::new("b")).is_empty());
    }
}
