//! Offline stand-in for `serde`: the traits exist so `use serde::{..}` and
//! the derives resolve, and nothing is ever serialized through them. The
//! harness writes its JSON by hand.

pub use serde_derive::{Deserialize, Serialize};

/// Marker only; the no-op derive implements nothing.
pub trait Serialize {}

/// Marker only; the no-op derive implements nothing.
pub trait Deserialize<'de> {}
