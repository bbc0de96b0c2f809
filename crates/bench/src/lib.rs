//! Micro-probe harness crate. The `benches/` targets time what the
//! end-to-end benchmark (`kadbench/`) cannot isolate, and `tests/` holds
//! the zero-allocation gates; this library only hosts their shared
//! fixtures.
pub mod support;
