//! The repository benchmark: two workloads timed end to end through the entry
//! points users call, and split by layer in a separate traced run whose
//! trajectory must match its untraced twin. See `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod cli;
pub mod header;
pub mod report;
pub mod run;
pub mod seeds;
pub mod service;
pub mod sim;

use std::time::Instant;

/// Times `f` into `acc`: the span the traced runs put around each layer call.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *acc += started.elapsed().as_secs_f64();
    out
}
