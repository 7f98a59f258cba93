//! `scr-loadgen`: the open-loop mail load observatory.
//!
//! The Figure-7 harness answers "how fast can N closed-loop threads go?" —
//! every thread issues its next operation only after the previous one
//! finishes, so when the system slows down the load politely slows with
//! it and the latency numbers hide the stall (*coordinated omission*).
//! This crate asks the question a mail service actually faces: arrivals
//! keep their own schedule, and every nanosecond a message waits in a
//! backed-up queue is charged to its latency.
//!
//! The pieces:
//!
//! * [`rng`] — seeded SplitMix64 streams; every run is reproducible from
//!   its recorded seed.
//! * [`zipf`] — mailbox-popularity sampling (`s = 0` uniform, bigger `s`
//!   more skew), the knob that turns a balanced shard fan-out into a hot
//!   notification socket.
//! * [`schedule`] — fixed-rate and Poisson arrival schedules, decided in
//!   full before the first worker thread starts.
//! * [`openloop`] — [`LoadConfig`], one open-loop cell, and its
//!   conversion into a release schedule for the one pipeline driver,
//!   [`scr_host::run_mail`]: enqueuers release messages at their intended
//!   arrival times against a [`MailServer`] topology of N enqueuers × M
//!   qmans over sharded notification sockets, and latency is measured
//!   *from the intended arrival*, via a timestamp stamped into the message
//!   body.
//! * [`sweep`] — the (pairs, rate, skew) × (sv6-host, linux-host) sweep,
//!   an instrumented conflict-heat pass per cell, and the
//!   `BENCH_mail.json` document (`examples/mail_loadgen.rs` writes it,
//!   `examples/bench_diff.rs` compares two of them).
//!
//! [`MailServer`]: scr_kernel::mail::MailServer

pub mod openloop;
pub mod rng;
pub mod schedule;
pub mod sweep;
pub mod zipf;

pub use openloop::LoadConfig;
pub use rng::Rng64;
pub use schedule::{arrival_offsets, Arrival};
pub use sweep::{bench_json, render_table, run_sweep, BenchCell, ShardHeat, SweepSpec};
pub use zipf::ZipfSampler;
