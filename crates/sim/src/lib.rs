//! Deterministic discrete-event simulation engine for the hostCC reproduction.
//!
//! This crate provides the generic building blocks shared by every other
//! crate in the workspace:
//!
//! * [`Nanos`] — the simulation clock type (nanosecond resolution, `u64`).
//! * [`EventQueue`] — a stable (FIFO-on-tie) pending-event set generic over a
//!   user-defined event payload.
//! * [`Rng`] — a small, fast, seedable xoshiro256++ generator so that every
//!   experiment is exactly repeatable from its seed; [`derive_seed`]
//!   keys independent streams (grid cells, chaos events, ECMP paths) off
//!   a base seed.
//! * [`Ewma`] — exponentially-weighted moving averages, used both by the
//!   simulated DCTCP (`α` with `g = 1/16`) and by hostCC itself
//!   (`I_S` with weight 1/8, `B_S` with weight 1/256, paper §4.1).
//! * [`Rate`] — bandwidth arithmetic in bytes/ns with Gbps/GBps conversions.
//! * [`Fnv`] and [`json`] — the one FNV-1a hasher and the one JSON codec
//!   behind every fingerprint and report in the workspace.
//!
//! The engine is single-threaded on purpose: the hostCC experiments need a
//! single logical clock across the host substrate, the fabric and the
//! transport, and determinism is worth far more to a reproduction than
//! parallel speed-up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod ewma;
mod fnv;
pub mod json;
mod rate;
mod rng;
mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use ewma::Ewma;
pub use fnv::Fnv;
pub use rate::Rate;
pub use rng::{derive_seed, Rng};
pub use time::Nanos;
