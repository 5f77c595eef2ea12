//! # perm-types
//!
//! Shared data-model substrate for the Perm provenance management system:
//! SQL values with three-valued logic, data types, schemas and tuples.
//!
//! Perm (Glavic & Alonso, SIGMOD 2009) represents provenance *as relational
//! data*: the provenance of a query result is an ordinary relation whose
//! tuples extend the original result tuples with the contributing base
//! tuples. Consequently everything in this crate is plain relational
//! machinery — there is no special provenance value type. Provenance
//! attributes are ordinary [`schema::Column`]s that happen to carry a
//! provenance name (`prov_<schema>_<relation>_<attribute>`) and are tracked
//! positionally by the rewrite layer.

#![deny(unsafe_code)]

pub mod batch;
pub mod error;
pub mod hash;
pub mod lifecycle;
pub mod ops;
pub mod schema;
// The row block's layout, refcount and drop are the crate's one unsafe
// code.
#[allow(unsafe_code)]
pub mod tuple;
pub mod types;
pub mod value;

pub use batch::{ColumnVec, NullBitmap, DEFAULT_BATCH_ROWS};
pub use error::{PermError, Result};
pub use lifecycle::{CancelHandle, CancelReason, QueryContext};
pub use schema::{Column, Schema};
pub use tuple::{RowBlock, Tuple};
pub use types::DataType;
pub use value::Value;
