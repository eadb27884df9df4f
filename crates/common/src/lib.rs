//! Shared data model for the Pinot reproduction.
//!
//! This crate holds everything that more than one component needs to agree
//! on: column types and values, table schemas and configs, record rows,
//! broker/server query request and response types, the realtime
//! segment-completion protocol messages, segment naming, and a tiny JSON
//! representation used for human-readable metadata in the metastore.
//!
//! Nothing here performs I/O; these are plain data types plus small pure
//! helpers, which keeps the dependency graph of the workspace a clean DAG.

pub mod config;
pub mod engine;
pub mod error;
pub mod ids;
pub mod json;
pub mod partition;
pub mod profile;
pub mod protocol;
pub mod query;
pub mod record;
pub mod retry;
pub mod schema;
pub mod time;
pub mod value;

pub use engine::EngineConfig;
pub use error::{PinotError, Result};
pub use record::Record;
pub use retry::RetryPolicy;
pub use schema::{DataType, FieldRole, FieldSpec, Schema, TimeUnit};
pub use value::Value;
