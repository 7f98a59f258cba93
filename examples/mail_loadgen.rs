//! The open-loop mail load observatory: the `BENCH_mail.json` generator.
//!
//! Sweeps (pipeline pairs, offered rate, zipf skew) × (sv6-host with
//! commutative APIs, linux-host with regular APIs), each cell an
//! **open-loop** run — arrivals keep a pre-decided schedule, latency is
//! measured from the *intended* arrival, so queueing delay under overload
//! is charged to the system, not silently omitted. Each cell also runs a
//! smaller pass on an instrumented kernel with a `hostmtrace` window open,
//! attributing cache-line conflicts to notification-socket shards.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example mail_loadgen             # smoke sweep
//! cargo run --release --example mail_loadgen -- --full   # full trajectory
//! cargo run --release --example mail_loadgen -- --chaos  # + fault-injected twins
//! cargo run --release --example mail_loadgen -- --out BENCH_mail.json
//! ```
//!
//! With `--chaos` every cell gains a `/chaos` twin running the same
//! schedule through a seeded errno-storm + delivery-delay plan, so the
//! JSON carries the latency tax of injected faults side by side with the
//! clean numbers.
//!
//! Every cell runs through the one pipeline driver, `scr_host::run_mail`.
//! Exits 1 if any cell breaks the exactly-once ledger, saying *how* (the
//! report's `failures()`): lost (enqueued, never arrived), duplicated
//! (arrived more than once), corrupt (a mailbox file holding no announced
//! body), leaked descriptors and dead-lettered (arrived, but in the
//! `dead-letter` mailbox) are reported separately — the smoke gate CI
//! runs on every push.

use scalable_commutativity::chaos::plan::{ChaosPlan, DelaySpec};
use scalable_commutativity::loadgen::{bench_json, render_table, run_sweep, SweepSpec};
use scalable_commutativity::obs::{arg_value, RunMeta};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let chaos = std::env::args().any(|a| a == "--chaos");
    let out = arg_value("out").unwrap_or_else(|| "BENCH_mail.json".to_string());
    let mut spec = if full {
        SweepSpec::full()
    } else {
        SweepSpec::smoke()
    };
    if chaos {
        // Fixed-seed storm + delivery holds: reproducible from the JSON.
        let mut plan = ChaosPlan::errno_storm(0xC4A0_5EED);
        plan.delay = DelaySpec {
            ppm: 50_000,
            polls: 8,
        };
        spec.chaos = Some(plan);
    }
    println!(
        "open-loop mail sweep ({}{}): {} pair size(s) x {} rate(s) x {} skew(s) x 2 modes, \
         {} msgs/cell (+{} heat), seed {}",
        if full { "full" } else { "smoke" },
        if chaos { ", chaos twins" } else { "" },
        spec.pairs.len(),
        spec.rates.len(),
        spec.skews.len(),
        spec.messages,
        spec.heat_messages,
        spec.seed,
    );

    let cells = run_sweep(&spec, |cell| {
        println!(
            "  {:<34} {:>8.0} msgs/s  p99 {:>9.0} ns  p99.9 {:>9.0} ns",
            cell.key(),
            cell.report.throughput(),
            cell.report.latency.p99(),
            cell.report.latency.p999(),
        );
    });

    println!("\n{}", render_table(&cells));

    // Hot-shard attribution: under skew the hottest shard's share and the
    // socket-line conflicts it drew in the instrumented pass.
    for cell in cells.iter().filter(|c| c.skew > 0.0) {
        if let Some(hot) = cell.report.hottest_shard() {
            let heat = cell
                .shard_heat
                .get(hot.shard)
                .map(|h| h.conflict_windows)
                .unwrap_or(0);
            println!(
                "hot shard {:<34} shard {} ({} of {} msgs, p99 {:.0} ns, {} conflict window(s))",
                cell.key(),
                hot.shard,
                hot.delivered,
                cell.report.delivered,
                hot.latency.p99(),
                heat,
            );
        }
    }

    // The chaos tax: each /chaos twin against its clean baseline.
    if chaos {
        println!();
        for twin in cells.iter().filter(|c| c.chaos) {
            let base_key = twin.key().replace("/chaos", "");
            if let Some(base) = cells.iter().find(|c| c.key() == base_key) {
                println!(
                    "chaos tax {:<34} {} fault(s), {} delay poll(s): \
                     p99 {:>9.0} -> {:>9.0} ns, p99.9 {:>9.0} -> {:>9.0} ns",
                    base_key,
                    twin.report.injected_faults,
                    twin.report.delayed_polls,
                    base.report.latency.p99(),
                    twin.report.latency.p99(),
                    base.report.latency.p999(),
                    twin.report.latency.p999(),
                );
            }
        }
    }

    // The exactly-once gate, with the failure shape spelled out: a lost
    // message (never arrived), a duplicate (arrived twice), a corrupt
    // file, a leaked descriptor and a dead-letter (arrived, wrong
    // mailbox) are different bugs.
    let mut reasons: Vec<&str> = Vec::new();
    for cell in &cells {
        let r = &cell.report;
        let failures = r.failures();
        if !failures.is_empty() {
            eprintln!(
                "FAIL {}: {} (of {} enqueued: lost {}, duplicates {}, corrupt {}, \
                 leaked fds {}, dead-lettered {})",
                cell.key(),
                failures.join(" + "),
                r.enqueued,
                r.lost,
                r.duplicates,
                r.corrupt,
                r.leaked_fds,
                r.dead_lettered,
            );
        }
        for shape in failures {
            if !reasons.contains(&shape) {
                reasons.push(shape);
            }
        }
    }
    let failed = !reasons.is_empty();

    let cores = cells.iter().map(|c| c.cores).max().unwrap_or(0);
    let meta = RunMeta::capture(
        "mail_loadgen",
        if full { "full" } else { "smoke" },
        cores,
        &format!(
            "{} cells, {} msgs/cell, arrival {:?}, seed {}",
            cells.len(),
            spec.messages,
            spec.arrival,
            spec.seed
        ),
    );
    std::fs::write(&out, bench_json(&meta, &cells)).expect("write bench json");
    println!("\nwrote {} cell(s) to {out}", cells.len());

    if failed {
        eprintln!("mail_loadgen: FAILED ({})", reasons.join(" + "));
        std::process::exit(1);
    }
    println!("mail_loadgen: OK");
}
