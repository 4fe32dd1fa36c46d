//! `pcmax-serve`: a batched, cancellable scheduling daemon on top of the
//! session engine.
//!
//! The daemon ([`Server`]) listens on TCP and speaks `pcmax-wire/1`
//! ([`pcmax_core::wire`]): length-prefixed compact-JSON frames carrying
//! `solve` / `cancel` / `shutdown` operations. Every connection gets a
//! reader thread (parses frames, submits to the shared
//! [`pcmax_engine::Engine`]) and a responder thread (writes responses in
//! submission order), so one connection can pipeline many concurrent
//! solves — the engine's worker pool multiplexes them, its bounded
//! admission queue sheds load as `overloaded` error responses, and its
//! instance-profile cache memoizes DP verdicts across requests and
//! connections.
//!
//! Cancellation is first-class: a `cancel` frame raises the
//! [`CancelToken`](pcmax_core::CancelToken) of the in-flight request it
//! targets, which the solve observes at its next budget gate; the
//! cancelled request's own response then comes back with status
//! `cancelled`. `shutdown` drains the connection, tears the engine down
//! (joining every worker, so park/wake totals balance) and answers with a
//! `bye` frame carrying the server's lifetime totals.
//!
//! [`Client`] is the matching blocking client.

pub mod client;
pub mod server;

pub use client::Client;
pub use server::{Server, ServerConfig};
