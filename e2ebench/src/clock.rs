//! The benchmark's clock.
//!
//! The workspace lint (`xtask lint`, rule `wall-clock`) keeps wall-clock
//! reads out of the program's deterministic paths. Timing is this
//! package's whole purpose, so it reads the clock through this one audited
//! re-export instead of annotating every call site.

// qucad-lint: allow(wall-clock)
pub use std::time::Instant as Stamp;
