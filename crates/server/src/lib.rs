//! # temporal-server
//!
//! Concurrent multi-client serving for the temporal database. This crate
//! is the outermost layer of the stack: it owns the `tsql` shell and adds
//! a socket server (`tsql --serve <dir>`) plus a matching client
//! (`tsql --connect <addr>`), speaking a line-oriented protocol simple
//! enough for `nc` (see [`protocol`]).
//!
//! The serving model (DESIGN.md "Serving & concurrency"):
//!
//! * one shared [`temporal_engine::db::Database`] — the engine's
//!   database object: one catalog, one buffer pool per table, one WAL;
//! * one [`temporal_sql::Session`] per connection
//!   ([`temporal_sql::Session::scoped`]): planner `SET`s stay
//!   connection-local, and the session refcount keeps close-time
//!   checkpointing off live connections;
//! * readers run on statement-level heap snapshots (never blocked by
//!   appenders), writers serialize on the database writer lock, and
//!   concurrent commits share WAL fsyncs through the group-commit
//!   flusher.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::Response;
pub use server::{stats_relation, Server, ServerHandle};
