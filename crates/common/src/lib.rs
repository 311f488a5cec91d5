//! Shared foundation types for the hybrid-physical-designs workspace.
//!
//! This crate defines the type system ([`DataType`], [`Value`]), tabular
//! metadata ([`Schema`], [`ColumnDef`]), row- and column-oriented data
//! containers ([`Row`], [`Batch`], [`ColumnVector`]), the scalar expression
//! language ([`Expr`]) with both row-at-a-time and vectorized evaluation, the
//! aggregate functions with the one accumulator every aggregate folds into
//! ([`agg`]), and the common error type [`HpdError`]. It also holds the physical-design
//! vocabulary every layer shares — [`IndexDescriptor`] and [`PartitionSpec`]
//! — so the engine, the advisor and the log name an index and a
//! partitioning the same way.
//!
//! Everything in the workspace — the B+ tree, the columnstore, the execution
//! engine, and the tuning advisor — speaks these types.

pub mod agg;
pub mod arcstr;
pub mod batch;
pub mod bitmap;
pub mod codec;
pub mod design;
pub mod error;
pub mod expr;
pub mod faults;
pub mod interval;
pub mod partition;
pub mod row;
pub mod schema;
pub mod types;

pub use agg::AggFunc;
pub use arcstr::ArcStr;
pub use batch::{push_encoded_row, Batch, ColumnVector};
pub use bitmap::SelBitmap;
pub use codec::ValueRef;
pub use design::IndexDescriptor;
pub use error::{HpdError, Result};
pub use expr::{BinOp, CmpOp, Expr};
pub use interval::Interval;
pub use partition::{PartitionMethod, PartitionSpec};
pub use row::{Key, Row};
pub use schema::{ColumnDef, Schema};
pub use types::{DataType, Value, DECIMAL_UNIT};
