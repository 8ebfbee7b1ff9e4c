//! # irs-wire — the network protocol of `irs-server`
//!
//! A hand-rolled, length-prefixed, CRC-framed TCP protocol (the
//! workspace is offline — no HTTP framework, no serde) carrying the
//! same typed vocabulary the in-process API speaks: batches of
//! [`Query`]s and [`Mutation`]s in, batches of
//! `Result<QueryOutput, WireError>` / `Result<UpdateOutput, WireError>`
//! out, plus snapshot administration and health/stats. Message bodies
//! are encoded with the workspace's snapshot [`Codec`] — the wire format
//! and the on-disk format share one primitive layer, one length-guarded
//! `Vec` decoder, and one corruption-refusal policy.
//!
//! The three layers, bottom up:
//!
//! - [`frame`] — byte framing: 4-byte magic (protocol version baked
//!   in), `u32` payload length (hard-capped **before** any allocation),
//!   payload, CRC-32. The server reads frames incrementally with
//!   timeout ticks so a graceful shutdown can drain without abandoning
//!   a half-received request.
//! - [`message`] — the typed [`Request`]/[`Response`] vocabulary.
//!   Requests that carry intervals also carry the endpoint scalar's
//!   type name and are refused with a typed error when it does not
//!   match the server's — a `u32` client cannot misread an `i64`
//!   server's replies.
//! - [`client::RemoteClient`] — the blocking client: the remote twin of
//!   `irs-client`'s `Client`, with the same batch (`run`/`run_seeded`,
//!   `apply`) and convenience (`count`/`sample`/`insert`/…) surfaces,
//!   returning [`WireError`]s that carry each failure's stable
//!   [`ErrorCode`].
//!
//! The framing, endpoint table, and error-code table are specified in
//! `DESIGN.md`, "Wire protocol".
//!
//! [`Codec`]: irs_core::Codec
//! [`Query`]: irs_engine::Query
//! [`Mutation`]: irs_core::Mutation
//! [`QueryOutput`]: irs_engine::QueryOutput

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod message;

pub use client::{LogStream, RemoteClient};
pub use frame::{FrameError, FrameReader, ReadEvent, MAX_PAYLOAD, WIRE_MAGIC};
pub use irs_core::{ErrorCode, WireError};
pub use message::{
    CollectionSummary, LogRecordFrame, ReplicationStatus, Request, Response, ServerStats,
    SnapshotChunk, SnapshotSummary, WireCollectionSpec,
};
