//! Deterministic discrete-event simulation kernel.
//!
//! The paper runs its Kademlia experiments on PeerSim's event-driven engine
//! ("EDProtocol"). This crate is the Rust substitute: a small, fully
//! deterministic discrete-event kernel plus the network-facing models the
//! experiments need.
//!
//! * [`time`] — simulated clock types ([`time::SimTime`],
//!   [`time::SimDuration`]); the paper's schedules are all expressed in
//!   simulated minutes.
//! * [`event`] / [`scheduler`] — a generic, cancellable event queue with a
//!   strict total order on events (time, then insertion sequence), which is
//!   what makes whole-simulation runs reproducible bit-for-bit.
//! * [`rng`] — seedable, labelled random-number streams so that independent
//!   components (churn, traffic, transport) draw from independent,
//!   reproducible sequences.
//! * [`transport`] — message-delivery policy combining a [`latency`] model
//!   with a [`loss`] model, including the paper's Table 1 loss scenarios
//!   (`none`/`low`/`medium`/`high` one-way loss ⇒ 0/5/25/50 % two-way
//!   failure).
//! * [`metrics`] — counters and summary statistics (mean, variance and the
//!   *relative variance* used by Table 2).
//!
//! # Example
//!
//! ```
//! use dessim::scheduler::EventQueue;
//! use dessim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_secs(1), Ev::Pong);
//! q.schedule_at(SimTime::ZERO, Ev::Ping);
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::ZERO, Ev::Ping));
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_secs(1), Ev::Pong));
//! assert!(q.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod latency;
pub mod loss;
pub mod metrics;
pub mod rng;
pub mod scheduler;
pub mod slab;
pub mod time;
pub mod transport;

pub use scheduler::EventQueue;
pub use time::{SimDuration, SimTime};
pub use transport::Transport;
