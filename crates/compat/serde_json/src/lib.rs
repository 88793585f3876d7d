//! Offline stand-in for [`serde_json`]: re-exports the compat `serde`
//! crate's [`serde::json`] codec unchanged, so the workspace has one JSON
//! writer and parser whichever crate name a caller depends on. Floats
//! round-trip exactly (upstream's `float_roundtrip`); non-finite floats
//! serialize as `null`, as upstream does.
//!
//! [`serde_json`]: https://crates.io/crates/serde_json

pub use serde::json::{from_str, parse_value, to_string, to_string_pretty, Error};
