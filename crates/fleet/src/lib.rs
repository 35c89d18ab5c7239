//! Machine-spanning shard fleets: a TCP coordinator/worker pair that
//! ships caches by fingerprint and survives worker deaths.
//!
//! Workers on other machines, or on the same box over loopback, connect
//! over TCP, pull the coordinator's world (and warm pair-cache entries)
//! by content-addressed key, lease shard slices from a retrying work
//! queue, and stream row files back. The contract carried over from
//! everything else in this workspace: a fleet run's merged rows are
//! **bitwise identical** to the unsharded run, worker deaths included.
//!
//! The moving parts:
//!
//! - [`wire`] — the framed protocol (requests, responses, chunked cache
//!   transfer), riding `embedstab_serve::wire`'s framing;
//! - [`queue`] — the lease ledger: heartbeat timeouts, capped-backoff
//!   re-dispatch, attempt caps, injected time;
//! - [`transfer`] — chunked pulls with receipt-time verification
//!   (whole-file hash + cache-header-vs-key);
//! - [`coordinator`] — the serving side: staged row commits, crash-fast
//!   lease release on disconnect;
//! - [`worker`] — the pulling side: cache sync, shard subprocess
//!   supervision, heartbeats, fault injection for drills.
//!
//! The runnable entry points are `fleet_coordinator` and `fleet_worker`
//! in the bench crate; `crates/bench/tests/fleet.rs` pins the bitwise
//! guarantee end to end with an injected mid-slice worker death.

pub mod coordinator;
pub mod error;
pub mod queue;
pub mod transfer;
pub mod wire;
pub mod worker;

pub use coordinator::{run_coordinator, CoordinatorConfig};
pub use error::FleetError;
pub use queue::{LeaseOutcome, QueueConfig, WorkQueue};
pub use transfer::{ensure_key, pull_key};
pub use wire::{FleetSpec, Request, Response};
pub use worker::{run_worker, WorkerConfig, WorkerReport, FAIL_ONCE_ENV};
