//! The §7.3 mail server on real threads: the CI smoke gate.
//!
//! Runs the full pipeline as a burst through the one pipeline driver,
//! `scr_host::run_mail` — mail-enqueue threads spooling messages and
//! announcing them on one shared notification socket, mail-qman threads
//! racing to receive, spawning a delivery helper per message (`fork` under
//! RegularApis, `posix_spawn` under CommutativeApis), waiting for it and
//! cleaning the spool — in **both** API configurations on **both** host
//! kernel modes, and verifies every message was delivered exactly once by
//! reading the mailbox files back.
//!
//! Every run is observed by `scr-obs`: per-core, cache-padded syscall
//! counters and latency histograms (so observing the pipeline cannot
//! introduce the shared line the pipeline avoids), a trace span per
//! pipeline stage, and EAGAIN/yield backoff counters. `--metrics-out
//! <path>` writes the merged JSON snapshot; `--trace-out <path>` writes the
//! stage spans as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`).
//!
//! It then replays the §4 extension corpus (socket send/recv and
//! spawn/fork/wait pairs) with racing threads and cross-checks it against
//! the simulated sv6 kernel: SIM-conflict-free pairs must stay
//! conflict-free on the host, results must linearize, and datagrams must
//! be conserved.
//!
//! Exits 1 naming the broken shape — lost, duplicated, corrupt, leaked
//! descriptors, dead-lettered (the report's `failures()`) — or on any
//! cross-check failure. Run with
//! `cargo run --release --example host_mail [-- --metrics-out mail.json --trace-out mail.trace.json]`.

use scalable_commutativity::host::workloads::MailTelemetry;
use scalable_commutativity::host::{available_threads, ext_campaign, run_mail, HostMode, MailRun};
use scalable_commutativity::kernel::mail::{MailConfig, MailTopology};
use scalable_commutativity::obs::{metrics_out, trace_out, Json, RunMeta, SyscallKind};

fn main() {
    let threads = available_threads();
    let (enqueuers, qmans, messages) = (2, 2, 100);
    // Every qman polls the one notification socket, so the qmans race
    // `recv` on it and exactly-once holds only if the kernel hands each
    // notification to exactly one of them.
    let topology = MailTopology::new(enqueuers, qmans).with_shards(1);
    let cores = topology.cores();
    println!(
        "host mail pipeline: {enqueuers} enqueuer + {qmans} qman threads on one shared \
         notification socket, {messages} messages/enqueuer, {threads} hardware thread(s)"
    );
    // One telemetry bundle across all four configurations: the counters
    // aggregate the whole gate, which is what the CI artifact wants.
    let telemetry = MailTelemetry::new(cores);
    let mut reasons: Vec<&str> = Vec::new();
    for mode in [HostMode::Sv6, HostMode::Linuxlike] {
        for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
            let run = MailRun::burst(mode, config, topology, enqueuers * messages);
            let report = run_mail(&run, Some(&telemetry));
            let verdict = if report.exactly_once() { "ok" } else { "FAIL" };
            println!(
                "  {:<24} {:<16} delivered {}/{} (dup {}, lost {}, corrupt {}, leaked fds {}) … {verdict}",
                mode.label(),
                format!("{config:?}"),
                report.delivered,
                report.offered,
                report.duplicates,
                report.lost,
                report.corrupt,
                report.leaked_fds,
            );
            for shape in report.failures() {
                if !reasons.contains(&shape) {
                    reasons.push(shape);
                }
            }
        }
    }

    // The per-syscall view of the pipeline: counts, per-core shards, tail
    // latency. The recv decomposition is the retry-tail invariant the
    // host_obs test proves: every qman_step is one recv, delivered or EAGAIN.
    println!("\nper-syscall telemetry (all four configurations pooled):");
    println!(
        "  {:<12} {:>8} {:>12} {:>12}  per-core",
        "call", "calls", "p50 ns", "p99 ns"
    );
    for kind in [
        SyscallKind::Open,
        SyscallKind::Write,
        SyscallKind::Read,
        SyscallKind::Close,
        SyscallKind::Unlink,
        SyscallKind::Send,
        SyscallKind::Recv,
        SyscallKind::Fork,
        SyscallKind::PosixSpawn,
        SyscallKind::Wait,
    ] {
        let count = telemetry.syscalls.count_of(kind);
        if count == 0 {
            continue;
        }
        let latency = telemetry.syscalls.latency(kind);
        let shards: Vec<String> = telemetry
            .syscalls
            .per_core_counts(kind)
            .iter()
            .map(|n| n.to_string())
            .collect();
        println!(
            "  {:<12} {:>8} {:>12.0} {:>12.0}  [{}]",
            kind.name(),
            count,
            latency.p50(),
            latency.p99(),
            shards.join(" ")
        );
    }
    println!(
        "  delivered per core: {:?}  (enqueued {}, EAGAIN retries {}, yields {})",
        telemetry.delivered.per_core(),
        telemetry.enqueued.total(),
        telemetry.eagain_retries.total(),
        telemetry.yield_spins.total()
    );
    println!(
        "  {} stage spans recorded across {} core(s)",
        telemetry.trace.len(),
        cores
    );

    println!("\n§4 extension corpus cross-check (sockets, fork/posix_spawn/wait):");
    let ext = ext_campaign(4, 3);
    println!(
        "  {} tests × 3 schedules = {} racing replays",
        ext.outcomes.len(),
        ext.replays_run
    );
    for failure in &ext.failures {
        eprintln!("  FAIL: {failure}");
    }
    if !ext.failures.is_empty() {
        reasons.push("extension cross-check");
    }
    if ext.failures.is_empty() {
        println!("  conflicts, linearizability and conservation all agree with the simulator");
    }

    if let Some(path) = metrics_out() {
        let mut snapshot = telemetry.registry.snapshot();
        snapshot.meta = RunMeta::capture(
            "host_mail",
            "sv6+linuxlike",
            cores,
            &format!("{enqueuers} enq + {qmans} qman, {messages} msgs/enq, both API families"),
        );
        snapshot.extras.push((
            "ext_campaign".to_string(),
            Json::obj(vec![
                ("tests", ext.outcomes.len().into()),
                ("replays", ext.replays_run.into()),
                ("failures", ext.failures.len().into()),
            ]),
        ));
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }
    if let Some(path) = trace_out() {
        telemetry.trace.write_chrome(&path).expect("write trace");
        println!("chrome trace written to {}", path.display());
    }

    if !reasons.is_empty() {
        eprintln!("host mail smoke gate FAILED ({})", reasons.join(" + "));
        std::process::exit(1);
    }
    println!("host mail smoke gate passed");
}
