//! # jackpine-sqlmini
//!
//! A small SQL engine purpose-built for the Jackpine benchmark: enough of
//! the language to express every micro-benchmark query and macro-scenario
//! step, executed through a planner that knows how to use spatial and
//! ordered indexes.
//!
//! Pipeline: [`token`] → [`parser`] → bind/plan ([`plan`]) → execute
//! ([`exec`]). Spatial semantics live in [`functions`]: each function
//! name is resolved once, at bind, to a [`functions::Func`], which the
//! planner and the evaluator dispatch on. The [`FunctionMode`] switch
//! implements the MBR-only predicate semantics of the MySQL-era engine
//! profile.
//!
//! The engine is storage-agnostic: it consumes tables through the
//! [`provider::CatalogProvider`] / [`provider::TableProvider`] traits that
//! `jackpine-engine` implements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod error;
pub mod exec;
pub mod fingerprint;
pub mod functions;
pub mod parser;
pub mod plan;
pub mod provider;
pub mod token;
pub mod virt;

pub use error::SqlError;
pub use exec::ResultSet;
pub use functions::FunctionMode;
pub use plan::{plan_select, PlanNode, PlanOptions};

/// Result alias for SQL operations.
pub type Result<T> = std::result::Result<T, SqlError>;
