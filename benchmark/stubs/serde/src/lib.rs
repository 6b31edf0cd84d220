//! Marker traits named like serde's, so `use serde::{Serialize,
//! Deserialize}` imports both the trait and the (no-op) derive macro.

/// Stand-in for `serde::Serialize`; nothing implements or calls it.
pub trait Serialize {}

/// Stand-in for `serde::Deserialize`; nothing implements or calls it.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
