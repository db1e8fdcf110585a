//! Workspace-level package for integration tests and examples.
//!
//! All functionality lives in the `sciml-*` crates; this crate only exists
//! so the repository root can host `examples/` and `tests/`, and holds
//! what those share: the host [`control`] row.

pub mod control;
