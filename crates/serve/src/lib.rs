//! # vulfi-serve — campaign orchestration as a long-running service
//!
//! `vulfi study` is one blocking process owning one study. This crate
//! turns the same orchestration layer into a **multi-tenant injection
//! service**: a daemon that accepts study specifications over a small
//! HTTP/1.1 + JSON API, queues them durably, and executes them with a
//! pool of worker threads leasing shard ranges through the deterministic
//! scheduler — so a study submitted over HTTP merges to a result
//! bit-identical to `vulfi study` on the same spec, even across daemon
//! crashes and restarts mid-campaign.
//!
//! The API surface:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /studies` | submit a [`vulfi::StudySpec`] → `{job, key}` |
//! | `GET /studies/:key` | queue state, live counts + ETA, result |
//! | `GET /studies/:key/report` | analytics cell (Wilson CI etc.) |
//! | `GET /studies/:key/events` | the study's slice of the journal |
//! | `GET /jobs` | the folded job table |
//! | `GET /dashboard` | live self-contained zero-JS HTML dashboard |
//! | `GET /metrics` | Prometheus exposition of the global registry |
//! | `GET /healthz` | liveness |
//! | `POST /shutdown` | graceful drain |
//!
//! Everything is built on `std::net` — the workspace is offline-vendored
//! and ships no HTTP stack, so the daemon speaks exactly as much HTTP as
//! the API needs (see [`http`]).
//!
//! The daemon keeps one journal, `<store>/events/ops.jsonl`: every
//! lifecycle edge (submit, queue→active, lease grant, shard completion,
//! requeue, merge, failure, absorbed engine faults) is one checksummed
//! append carrying the correlation IDs needed to reconstruct any job's
//! history. The job table is a fold over it, replayed once at bind and
//! kept in memory; `vulfi events summarize` runs the same fold offline.

pub mod client;
pub mod daemon;
pub mod http;

pub use client::Client;
pub use daemon::{install_shutdown_signals, spec_from_value, Daemon, DaemonHandle, ServeConfig};
