//! Offline stand-in for `serde_json`: the library targets the harness links
//! never call it (only tests and the CLI do), so it only has to resolve.
