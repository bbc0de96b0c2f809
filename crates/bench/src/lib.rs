//! Gate-test crate. `tests/` holds the zero-allocation gates (tier 1) and
//! the two release-profile overhead gates (`overhead_gates`); this library
//! only hosts their shared fixtures. Every speed figure lives in the
//! end-to-end benchmark (`kadbench/`).
pub mod support;
