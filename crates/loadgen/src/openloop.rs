//! Open-loop cells: a [`LoadConfig`] describes an arrival process and
//! becomes a [`MailRun`] release schedule for the one pipeline driver,
//! [`scr_host::run_mail`].
//!
//! Every message's arrival time and mailbox are decided here, before the
//! first thread starts ([`arrival_offsets`], [`ZipfSampler`]); the
//! driver's enqueuers release messages *at* those times and measure
//! latency **from the intended arrival** to delivery. When the pipeline
//! falls behind, the wait in its queues is part of the number — the
//! coordinated-omission-safe convention (Tene's "How NOT to Measure
//! Latency") that closed-loop harnesses like
//! [`LoadHarness`](scr_host::harness::LoadHarness) cannot give, because
//! their next request waits for the previous reply.
//!
//! With an enabled [`ChaosPlan`] in [`LoadConfig::chaos`], the run goes
//! through the driver's fault layer with a never-give-up retry budget:
//! injected errnos and delivery holds surface as latency (charged from
//! the intended arrival, like any other queueing delay), and scheduled
//! qman crashes fire and are recovered exactly as under a burst.

use crate::rng::Rng64;
use crate::schedule::{arrival_offsets, Arrival};
use crate::zipf::ZipfSampler;
use scr_chaos::plan::ChaosPlan;
use scr_host::kernel::HostMode;
use scr_host::{MailRun, Release};
use scr_kernel::mail::{MailConfig, MailTopology};
use scr_kernel::retry::RetryPolicy;

/// One open-loop cell: what to offer the pipeline and how to shape it.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Kernel sharing structure (sv6 striped vs linuxlike global lock).
    pub mode: HostMode,
    /// Mail API family (§7.3 regular vs commutative).
    pub mail: MailConfig,
    /// Enqueuers × qmans × notification-socket shards.
    pub topology: MailTopology,
    /// Total messages to offer.
    pub messages: usize,
    /// Offered arrival rate, messages per second (across all enqueuers).
    pub rate_per_sec: f64,
    /// Arrival process (fixed-rate or Poisson).
    pub arrival: Arrival,
    /// Size of the mailbox namespace popularity is sampled over.
    pub mailboxes: usize,
    /// Zipf exponent for mailbox popularity; 0 = uniform.
    pub zipf_s: f64,
    /// Seed for the whole run (schedule + popularity).
    pub seed: u64,
    /// Deliberate per-step stall in each qman loop, in nanoseconds. Zero in
    /// real runs; the coordinated-omission regression test sets it to cap
    /// the service rate below the offered rate and then checks the recorded
    /// latency grows with the backlog.
    pub qman_stall_ns: u64,
    /// Fault-injection plan. [`ChaosPlan::none()`] (the default cells) runs
    /// the kernel bare; an enabled plan runs the cell through the driver's
    /// fault layer, retrying persistently, so every injected errno and
    /// delivery hold shows up as open-loop latency.
    pub chaos: ChaosPlan,
}

impl LoadConfig {
    /// A small deterministic smoke cell: 1×1 pipeline, commutative APIs,
    /// uniform popularity, fast fixed-rate arrivals.
    pub fn smoke() -> LoadConfig {
        LoadConfig {
            mode: HostMode::Sv6,
            mail: MailConfig::CommutativeApis,
            topology: MailTopology::single(),
            messages: 200,
            rate_per_sec: 20_000.0,
            arrival: Arrival::FixedRate,
            mailboxes: 16,
            zipf_s: 0.0,
            seed: 1,
            qman_stall_ns: 0,
            chaos: ChaosPlan::none(),
        }
    }

    /// One-line cell description for tables and `RunMeta.config`.
    pub fn describe(&self) -> String {
        format!(
            "{}x{} pipeline, {} shard(s), {} msgs @ {:.0}/s {}, {} mailboxes zipf s={}, seed {}",
            self.topology.enqueuers,
            self.topology.qmans,
            self.topology.notify_shards,
            self.messages,
            self.rate_per_sec,
            self.arrival.name(),
            self.mailboxes,
            self.zipf_s,
            self.seed
        )
    }

    /// The cell as a pipeline run: the arrival schedule (message `i` due
    /// at `arrival_offsets(..)[i]`, addressed to a zipf-sampled
    /// `box{rank:04}`) plus the cell's kernel, topology and faults. An
    /// enabled plan retries without bound and never sheds, so chaos costs
    /// the cell latency, not mail.
    pub fn mail_run(&self) -> MailRun {
        let offsets = arrival_offsets(self.arrival, self.rate_per_sec, self.messages, self.seed);
        let sampler = ZipfSampler::new(self.mailboxes.max(1), self.zipf_s);
        let mut popularity = Rng64::stream(self.seed, 0x21BF);
        let schedule = offsets
            .into_iter()
            .map(|due_ns| Release {
                due_ns,
                mailbox: format!("box{:04}", sampler.sample(&mut popularity)),
            })
            .collect();
        MailRun {
            mode: self.mode,
            config: self.mail,
            topology: self.topology,
            schedule,
            plan: self.chaos.clone(),
            retry: RetryPolicy::spin(),
            max_backlog: None,
            qman_stall_ns: self.qman_stall_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_chaos::plan::{DelaySpec, FaultSpec};
    use scr_host::run_mail;

    #[test]
    fn open_loop_smoke_delivers_everything_exactly_once() {
        let mut config = LoadConfig::smoke();
        config.messages = 100;
        let report = run_mail(&config.mail_run(), None);
        assert_eq!(report.enqueued, 100);
        assert_eq!(report.delivered, 100);
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.dead_lettered, 0);
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(report.latency.count, 100);
        assert!(report.throughput() > 0.0);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].delivered, 100);
    }

    #[test]
    fn schedule_follows_the_arrival_process_and_popularity() {
        let config = LoadConfig {
            messages: 50,
            zipf_s: 1.2,
            ..LoadConfig::smoke()
        };
        let run = config.mail_run();
        let offsets = arrival_offsets(config.arrival, config.rate_per_sec, 50, config.seed);
        let dues: Vec<u64> = run.schedule.iter().map(|r| r.due_ns).collect();
        assert_eq!(dues, offsets);
        assert!(run.schedule.iter().all(|r| r.mailbox.starts_with("box")));
        assert_eq!(run.schedule, config.mail_run().schedule, "seeded");
        assert!(!run.plan.enabled(), "a disabled plan adds no fault layer");
    }

    #[test]
    fn chaos_cell_injects_faults_but_loses_nothing() {
        let mut config = LoadConfig::smoke();
        config.messages = 120;
        config.chaos = ChaosPlan::errno_storm(7);
        config.chaos.delay = DelaySpec {
            ppm: 50_000,
            polls: 4,
        };
        let report = run_mail(&config.mail_run(), None);
        assert_eq!(report.delivered, 120);
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.dead_lettered, 0);
        assert!(report.injected_faults > 0, "storm injected nothing");
    }

    #[test]
    fn chaos_cell_is_deterministic_in_its_fault_count() {
        // recv stays fault-free: the number of recv polls depends on
        // scheduling (empty-queue spins), so only the calls with
        // schedule-determined counts — send, open, spawn — are injected.
        let mut config = LoadConfig::smoke();
        config.messages = 80;
        config.chaos = ChaosPlan::new(
            11,
            FaultSpec {
                send_ppm: 150_000,
                recv_ppm: 0,
                open_ppm: 150_000,
                spawn_ppm: 150_000,
            },
            DelaySpec::default(),
            vec![],
        );
        let a = run_mail(&config.mail_run(), None);
        let b = run_mail(&config.mail_run(), None);
        // Timing differs run to run, but the fault *decisions* are a pure
        // function of (seed, core, per-kind call index): identical traffic
        // must draw an identical injection count.
        assert_eq!(a.injected_faults, b.injected_faults);
        assert!(a.injected_faults > 0, "plan injected nothing");
        assert_eq!(a.lost + b.lost, 0);
    }

    #[test]
    fn qman_crashes_fire_and_recover_on_an_open_schedule() {
        // 60 messages at 20k msg/s through one qman: the crash plan's
        // three deaths of slot 0 must fire under an open schedule exactly
        // as under a burst, and the ledger must still close.
        let config = LoadConfig {
            messages: 60,
            chaos: ChaosPlan::qman_crash(3),
            ..LoadConfig::smoke()
        };
        assert_eq!(config.rate_per_sec, 20_000.0);
        assert_eq!(config.topology.qmans, 1);
        let report = run_mail(&config.mail_run(), None);
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(report.crashes, 3, "{report:?}");
        assert_eq!(report.restarts, 3, "{report:?}");
        assert_eq!(report.redriven, 2, "{report:?}");
        assert_eq!(report.orphans_reaped, 2, "{report:?}");
    }

    #[test]
    fn sharded_run_attributes_every_message_to_a_shard() {
        let mut config = LoadConfig::smoke();
        config.topology = MailTopology::new(2, 2).with_shards(4);
        config.messages = 120;
        config.zipf_s = 1.2;
        let report = run_mail(&config.mail_run(), None);
        assert_eq!(report.delivered, 120);
        let per_shard: u64 = report.shards.iter().map(|s| s.delivered).sum();
        assert_eq!(per_shard, 120);
        let lat_count: u64 = report.shards.iter().map(|s| s.latency.count).sum();
        assert_eq!(lat_count, report.latency.count);
        assert!(report.hottest_shard().unwrap().delivered > 0);
    }
}
