//! # dram-sim
//!
//! SDRAM device and controller models for the paper's Table 2 rows on
//! predictable DRAM controllers (Predator \[1\], AMC \[17\]) and
//! predictable refreshes (Bhat & Mueller \[4\]).
//!
//! The template instances: the *property* is the latency of DRAM
//! accesses; the *sources of uncertainty* are the occurrence of
//! refreshes and interference from concurrently executing applications
//! (other clients of the shared controller); the *quality measure* is
//! the existence and size of a bound on access latency (controllers)
//! and the variability in latencies (refresh).
//!
//! * [`device`] — a bank/row SDRAM timing model.
//! * [`controller`] — arbitration/access schemes on top: first-ready
//!   FCFS (good average case, no useful per-client bound under
//!   interference), Predator-style closed-page with regulated static
//!   priority (analytic per-client bound), and AMC-style TDM (analytic
//!   bound `clients × slot`).
//! * [`refresh`] — distributed refresh (collides with accesses
//!   depending on the unknown refresh phase — a hardware-state
//!   uncertainty) vs. burst refresh between tasks (zero refresh jitter
//!   inside a task).

pub mod controller;
pub mod device;
pub mod refresh;

pub use controller::{simulate, Controller, Request, ServiceResult};
pub use device::{DramDevice, DramTiming};
pub use refresh::{task_time, RefreshScheme};
