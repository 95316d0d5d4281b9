//! Measurement infrastructure for the hostCC reproduction.
//!
//! The paper's evaluation reports four kinds of quantities, and this crate
//! provides one tool per kind:
//!
//! * tail latencies (Fig 4, 12, 15: P50–P99.99 whiskers) — [`Histogram`],
//!   a log-bucketed (HDR-style) latency histogram;
//! * throughputs and drop rates (Fig 2, 3, 10, 11, 13, 14, 16, 17) —
//!   [`Meter`] and [`Counter`];
//! * time series (Fig 8, 18, 19: `I_S`, `B_S`, response level vs time) —
//!   [`TimeSeries`];
//! * empirical CDFs (Fig 7: signal read latency) — [`Cdf`].
//!
//! [`Table`] renders experiment outputs as aligned ASCII tables so that the
//! `repro` CLI prints the same rows/series the paper plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod counter;
mod histogram;
mod meter;
mod table;
mod timeseries;

pub use cdf::Cdf;
pub use counter::Counter;
pub use histogram::Histogram;
/// The workspace hasher and JSON codec, re-exported for crates that reach
/// `hostcc-sim` only through this one (`hostcc-matchup`).
pub use hostcc_sim::{json, Fnv};
pub use meter::Meter;
pub use table::{f2, pct, Table};
pub use timeseries::TimeSeries;
