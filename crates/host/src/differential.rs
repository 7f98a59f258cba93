//! The differential runner: TESTGEN's concrete tests replayed on real
//! threads.
//!
//! The commutativity rule's empirical leg rests on the claim that the
//! simulated kernels faithfully represent what a real implementation would
//! do. This module checks exactly that: a [`HostReplayer`] replays every
//! generated test through [`replay_host`] on a fresh [`HostKernel`], the
//! commutative operations race on real OS threads behind one barrier, and
//! every observable result is compared against the simulated `Sv6Kernel`'s
//! sequential orders. Because the operations *commute*, any schedule the
//! hardware picks must reproduce the result of some sequential order.
//!
//! A campaign takes its corpus from `scr_core::run_commuter` (no kernels),
//! so every pair is generated under its `pair_config` model exactly as in
//! the simulated Figure 6 sweep. The replayer's optional [`ChaosPlan`]
//! puts the fault layer in front of the kernel: the chaos campaign is the
//! same campaign under an errno storm.

use crate::kernel::{HostKernel, HostMode};
use crate::replay::replay_host;
use scr_chaos::plan::ChaosPlan;
use scr_core::pipeline::CommuterConfig;
use scr_core::{
    as_pair, run_commuter, run_test_order, ConcreteTest, ConcreteTripleTest, Script, SkipHistogram,
    Sv6Factory,
};
use scr_kernel::api::SysResult;
use scr_model::CallKind;
use scr_obs::EventLog;

/// Replays generated tests on a fresh [`HostKernel`] (sv6 mode) per
/// replay, racing the traced operations on real threads. An enabled
/// `plan` runs every setup and racing op through `ReliableKernel →
/// FaultyKernel` with a never-give-up retry policy. Injected failures have
/// no side effects and the reliable layer retries exactly them, so the
/// stack is observationally the bare kernel — replays under an errno storm
/// must still linearize against the simulated kernel's sequential orders,
/// and a mismatch means an injected fault leaked through the retry
/// contract (or a genuine divergence).
#[derive(Clone, Debug)]
pub struct HostReplayer {
    /// Cores (thread slots) each fresh kernel is configured with.
    pub cores: usize,
    /// The fault plan each replay runs under; [`ChaosPlan::none`] replays
    /// on the bare kernel. (Crash schedules are meaningless here — there
    /// are no qmans to kill — but errno and delay injection apply to every
    /// faultable call the test makes.)
    pub plan: ChaosPlan,
}

impl Default for HostReplayer {
    fn default() -> Self {
        HostReplayer {
            cores: 4,
            plan: ChaosPlan::none(),
        }
    }
}

impl HostReplayer {
    /// Races a script's ops on a fresh kernel; `results[i]` belongs to
    /// `ops[i]`.
    fn race(&self, script: &Script<'_>) -> Vec<SysResult> {
        let cores = self.cores.max(script.ops.len());
        let kernel = HostKernel::new(cores, HostMode::Sv6);
        replay_host(&kernel, &self.plan, script, true, None).results
    }

    /// Races a pair test; returns `(op_a, op_b)`'s results.
    pub fn replay(&self, test: &ConcreteTest) -> (SysResult, SysResult) {
        as_pair(self.race(&test.script()))
    }

    /// Races a triple test on three threads; `results[i]` belongs to
    /// `ops[i]` whatever interleaving the hardware picked.
    pub fn replay_triple(&self, test: &ConcreteTripleTest) -> [SysResult; 3] {
        self.race(&test.script())
            .try_into()
            .expect("a triple has three ops")
    }
}

/// Checks a racing host replay against the simulated kernel: the result
/// triple must match at least one of the six sequential linearisations.
/// For a SIM-commutative triple all six orders agree, so any scheduling
/// the hardware picks must reproduce exactly that result vector — a
/// mismatch is a genuine host↔model divergence, not a benign reordering.
pub fn triple_linearizes(test: &ConcreteTripleTest, host: &[SysResult; 3]) -> bool {
    let factory = Sv6Factory { cores: 3 };
    scr_core::TRIPLE_ORDERS
        .iter()
        .any(|&order| scr_core::run_triple_order(&factory, test, order).results == *host)
}

/// The outcome of cross-checking one test between the simulated kernel
/// and a host replay.
#[derive(Clone, Debug)]
pub struct DifferentialOutcome {
    /// The test's identifier.
    pub test_id: String,
    /// Results from the simulated kernel running op_a before op_b.
    pub simulated: (SysResult, SysResult),
    /// Results from the simulated kernel running op_b before op_a. For
    /// most commutative pairs this equals `simulated`; extension pairs
    /// whose operations race over shared queues or a shared pid allocator
    /// (send ∥ recv with a steal, fork ∥ fork) produce order-dependent but
    /// SIM-equivalent results, so the replayed race must merely match
    /// *some* linearisation.
    pub simulated_ba: (SysResult, SysResult),
    /// Results from the host replay (op_a, op_b).
    pub replayed: (SysResult, SysResult),
}

impl DifferentialOutcome {
    /// Did the replay observe the results of some sequential order of the
    /// pair on the simulated kernel?
    pub fn agree(&self) -> bool {
        self.replayed == self.simulated || self.replayed == self.simulated_ba
    }
}

/// Replays `test` up to `schedules` times and stops at the first replay
/// that matches neither simulated order. Returns the replays run and that
/// mismatch, if any.
fn cross_check(
    replayer: &HostReplayer,
    test: &ConcreteTest,
    schedules: usize,
) -> (usize, Option<DifferentialOutcome>) {
    let factory = Sv6Factory { cores: 4 };
    let mut outcome = DifferentialOutcome {
        test_id: test.id.clone(),
        simulated: run_test_order(&factory, test, true).results,
        simulated_ba: run_test_order(&factory, test, false).results,
        replayed: (SysResult::Unit, SysResult::Unit),
    };
    let schedules = schedules.max(1);
    for replays in 1..=schedules {
        outcome.replayed = replayer.replay(test);
        if !outcome.agree() {
            return (replays, Some(outcome));
        }
    }
    (schedules, None)
}

/// Per-call-pair accounting of one campaign, proving the test budget was
/// spread across every pair instead of exhausted by the first few.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// The (unordered) call pair.
    pub calls: (CallKind, CallKind),
    /// Tests TESTGEN materialised for the pair.
    pub generated: usize,
    /// Tests of the pair the budget actually replayed.
    pub replayed: usize,
    /// Representatives TESTGEN could not materialise for the pair.
    pub skipped: usize,
}

/// Aggregated result of a differential run.
#[derive(Clone, Debug, Default)]
pub struct DifferentialReport {
    /// Number of distinct tests replayed.
    pub tests_run: usize,
    /// Total replays, counting every schedule repetition.
    pub replays_run: usize,
    /// Tests whose simulated and host results disagreed (first disagreeing
    /// schedule per test).
    pub mismatches: Vec<DifferentialOutcome>,
    /// Per-pair budget accounting (campaign runs only).
    pub pairs: Vec<PairOutcome>,
    /// Aggregated TESTGEN skip reasons across every pair (campaign runs
    /// only) — coverage the oracle could not check, by cause.
    pub skip_reasons: SkipHistogram,
}

impl DifferentialReport {
    /// Did every test agree?
    pub fn all_agree(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// One line per mismatch, for diagnostics.
    pub fn describe_mismatches(&self) -> String {
        self.mismatches
            .iter()
            .map(|m| {
                format!(
                    "{}: simulated {:?} vs host {:?}",
                    m.test_id, m.simulated, m.replayed
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Knobs of a differential campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Calls whose unordered pairs the campaign sweeps.
    pub calls: Vec<CallKind>,
    /// Total budget of distinct tests to replay, spread round-robin across
    /// the pairs so no pair is starved by earlier ones.
    pub max_tests: usize,
    /// Satisfying assignments enumerated per commutative case before
    /// isomorphism deduplication (the campaign default is higher than the
    /// quick pipeline's, widening the representative pool).
    pub max_assignments_per_case: usize,
    /// How many times each test races on real threads. Commutative results
    /// must be schedule-independent, so every repetition must agree with
    /// the simulated kernel bit-for-bit.
    pub schedules_per_test: usize,
    /// Seed for the deterministic shuffle that picks which of a pair's
    /// tests the budget covers.
    pub seed: u64,
    /// Workers of the corpus sweep: `1` sequential, `N > 1` that many
    /// workers, `0` one per hardware thread. The sweep's corpus comes back
    /// in pair order, so the selected corpus (and every per-pair shuffle
    /// seed) is byte-identical for every value.
    pub threads: usize,
}

impl CampaignConfig {
    /// The full-strength campaign over the given calls.
    pub fn new(calls: &[CallKind]) -> Self {
        CampaignConfig {
            calls: calls.to_vec(),
            max_tests: 256,
            max_assignments_per_case: 96,
            schedules_per_test: 3,
            seed: 0x5ca1ab1e,
            threads: 1,
        }
    }

    /// A bounded variant: single schedule, quick-pipeline assignment limit.
    pub fn quick(calls: &[CallKind], max_tests: usize) -> Self {
        CampaignConfig {
            max_tests,
            max_assignments_per_case: CommuterConfig::quick(calls).max_assignments_per_case,
            schedules_per_test: 1,
            ..CampaignConfig::new(calls)
        }
    }
}

/// Generates tests for every shape of the given call pairs (bounded by
/// `max_tests`, spread round-robin over the pairs) and cross-checks the
/// host kernel against the simulated `Sv6Kernel` on each.
pub fn differential_sample(calls: &[CallKind], max_tests: usize) -> DifferentialReport {
    differential_campaign(&CampaignConfig::quick(calls, max_tests))
}

/// xorshift64* — a tiny deterministic generator for the campaign shuffle
/// (no registry access for a real RNG crate, and reproducibility is the
/// point anyway).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Fisher–Yates with the seeded generator.
fn shuffle<T>(items: &mut [T], seed: u64) {
    // Avoid the all-zero fixed point.
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        let j = (xorshift64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Runs a seeded differential campaign: generates tests for every unordered
/// pair of `config.calls`, spreads the replay budget round-robin across the
/// pairs (shuffling each pair's tests deterministically), and replays every
/// selected test `schedules_per_test` times on real threads, comparing each
/// replay against the simulated kernel's results.
pub fn differential_campaign(config: &CampaignConfig) -> DifferentialReport {
    differential_campaign_observed(config, None)
}

/// [`differential_campaign`], optionally narrating itself into an
/// [`EventLog`]: one `pair-pool` event per call pair (corpus size, skips
/// and the per-pair shuffle seed), one `mismatch` event per disagreement
/// (test id plus both results), and a final `campaign-done` event carrying
/// the seed and budget. A failed run is reproducible from the exported
/// event stream alone — the seed and config knobs are all in it.
pub fn differential_campaign_observed(
    config: &CampaignConfig,
    events: Option<&EventLog>,
) -> DifferentialReport {
    differential_campaign_with(config, &HostReplayer::default(), events)
}

/// The chaos leg of the campaign: the same seeded pair sweep replayed
/// through a [`HostReplayer`] under `plan`'s errno injection. Since the
/// reliable retry stack is observationally the raw kernel, every replay
/// must still linearize against the simulated sequential orders —
/// [`DifferentialReport::all_agree`] asserts the retry contract end to
/// end, on every faultable call TESTGEN reaches.
pub fn chaos_campaign(config: &CampaignConfig, plan: &ChaosPlan) -> DifferentialReport {
    let replayer = HostReplayer {
        plan: plan.clone(),
        ..HostReplayer::default()
    };
    differential_campaign_with(config, &replayer, None)
}

/// [`differential_campaign_observed`] over an explicit replayer: the
/// generation, budgeting and linearization phases do not depend on the
/// fault plan, so the plain host stack and the chaos stack share one
/// campaign body.
pub fn differential_campaign_with(
    config: &CampaignConfig,
    replayer: &HostReplayer,
    events: Option<&EventLog>,
) -> DifferentialReport {
    // Phase 1: the corpus of every pair, from the COMMUTER sweep. Every
    // pair's corpus is generated in full even when `max_tests` would cover
    // only a fraction — deliberately: the skip-reason histogram (which the
    // CI baseline gates on) and the seeded sampling are only meaningful
    // over the complete pool. The sweep returns its tests in pair order
    // with per-pair counts, and each pair's shuffle seed is derived from
    // its position — that order IS the determinism contract.
    let sweep = run_commuter(
        &CommuterConfig {
            max_assignments_per_case: config.max_assignments_per_case,
            threads: config.threads,
            ..CommuterConfig::quick(&config.calls)
        },
        &[],
    );
    let mut corpus = sweep.tests.into_iter();
    let pools: Vec<(CallKind, CallKind, Vec<ConcreteTest>, usize)> = sweep
        .pair_timings
        .iter()
        .enumerate()
        .map(|(index, pair)| {
            let (call_a, call_b) = pair.calls;
            let mut pool: Vec<ConcreteTest> = corpus.by_ref().take(pair.tests).collect();
            // A deterministic per-pair shuffle so the budget samples the
            // pair's shapes instead of always replaying the first ones.
            let pair_seed = config
                .seed
                .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            shuffle(&mut pool, pair_seed);
            if let Some(events) = events {
                events.emit_kv(
                    "pair-pool",
                    vec![
                        ("call_a", call_a.name().into()),
                        ("call_b", call_b.name().into()),
                        ("generated", pool.len().into()),
                        ("skipped", pair.skipped.into()),
                        ("pair_seed", pair_seed.into()),
                    ],
                );
            }
            (call_a, call_b, pool, pair.skipped)
        })
        .collect();

    // Phase 2: spread the budget round-robin across the pairs.
    let mut selected: Vec<(usize, ConcreteTest)> = Vec::new();
    let mut cursors = vec![0usize; pools.len()];
    'budget: loop {
        let mut progressed = false;
        for (idx, (_, _, pool, _)) in pools.iter().enumerate() {
            if selected.len() >= config.max_tests {
                break 'budget;
            }
            if cursors[idx] < pool.len() {
                selected.push((idx, pool[cursors[idx]].clone()));
                cursors[idx] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Phase 3: replay each selected test under several schedules; a racing
    // replay of a commutative pair must linearise to one of the simulated
    // kernel's two sequential orders (see `DifferentialOutcome::agree`).
    let mut report = DifferentialReport {
        skip_reasons: sweep.skip_reasons,
        ..DifferentialReport::default()
    };
    let mut replayed_per_pair = vec![0usize; pools.len()];
    for (idx, test) in &selected {
        report.tests_run += 1;
        replayed_per_pair[*idx] += 1;
        let (replays, mismatch) = cross_check(replayer, test, config.schedules_per_test);
        report.replays_run += replays;
        if let Some(mismatch) = mismatch {
            if let Some(events) = events {
                events.emit_kv(
                    "mismatch",
                    vec![
                        ("test_id", test.id.as_str().into()),
                        ("simulated", format!("{:?}", mismatch.simulated).into()),
                        ("replayed", format!("{:?}", mismatch.replayed).into()),
                    ],
                );
            }
            report.mismatches.push(mismatch);
        }
    }
    if let Some(events) = events {
        events.emit_kv(
            "campaign-done",
            vec![
                ("seed", config.seed.into()),
                ("max_tests", config.max_tests.into()),
                ("schedules_per_test", config.schedules_per_test.into()),
                (
                    "max_assignments_per_case",
                    config.max_assignments_per_case.into(),
                ),
                ("tests_run", report.tests_run.into()),
                ("replays_run", report.replays_run.into()),
                ("mismatches", report.mismatches.len().into()),
            ],
        );
    }
    report.pairs = pools
        .iter()
        .zip(&replayed_per_pair)
        .map(|((a, b, pool, skipped), replayed)| PairOutcome {
            calls: (*a, *b),
            generated: pool.len(),
            replayed: *replayed,
            skipped: *skipped,
        })
        .collect();
    report
}

/// The §4 extension leg of the campaign: the TESTGEN-generated extension
/// corpus from [`crate::fig6`] (socket queues and the process table are
/// modelled symbolically), replayed on real threads under several
/// schedules and cross-checked by linearization plus message conservation.
#[derive(Clone, Debug)]
pub struct ExtCampaignReport {
    /// Per-test verdicts.
    pub outcomes: Vec<crate::fig6::ExtOutcome>,
    /// Total racing replays performed.
    pub replays_run: usize,
    /// Human-readable failures; empty when the cross-check passed.
    pub failures: Vec<String>,
}

impl ExtCampaignReport {
    /// Did every extension test agree with the simulated kernel?
    pub fn all_agree(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the extension corpus `schedules` times per test on real threads,
/// cross-checking conflicts, linearizability and message conservation
/// against the simulated sv6 kernel.
pub fn ext_campaign(cores: usize, schedules: usize) -> ExtCampaignReport {
    let outcomes = crate::fig6::run_ext_fig6(cores, schedules);
    let failures = crate::fig6::ext_failures(&outcomes);
    ExtCampaignReport {
        replays_run: outcomes.len() * schedules.max(1),
        outcomes,
        failures,
    }
}

/// Cross-checks an explicit batch of tests (single schedule each).
pub fn run_differential(tests: &[ConcreteTest]) -> DifferentialReport {
    let replayer = HostReplayer::default();
    DifferentialReport {
        tests_run: tests.len(),
        replays_run: tests.len(),
        mismatches: tests
            .iter()
            .filter_map(|test| cross_check(&replayer, test, 1).1)
            .collect(),
        ..DifferentialReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{OpenFlags, SysOp};
    use scr_obs::Json;

    #[test]
    fn manual_commutative_pair_agrees() {
        let test = ConcreteTest {
            id: "manual_create_different".into(),
            calls: (CallKind::Open, CallKind::Open),
            setup: vec![],
            op_a: SysOp::Open {
                pid: 0,
                name: "alpha".into(),
                flags: OpenFlags::create(),
            },
            op_b: SysOp::Open {
                pid: 1,
                name: "bravo".into(),
                flags: OpenFlags::create(),
            },
            procs: 2,
        };
        let report = run_differential(std::slice::from_ref(&test));
        assert_eq!(report.tests_run, 1);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
    }

    #[test]
    fn stat_unlink_sample_has_no_mismatches() {
        let report = differential_sample(&[CallKind::Stat, CallKind::Unlink], 24);
        assert!(report.tests_run > 0);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
    }

    #[test]
    fn campaign_budget_is_spread_round_robin_across_pairs() {
        // Three calls → six unordered pairs. With a budget far below the
        // total generated corpus, every pair that has tests must still get
        // replays (the old `break 'outer` filled the budget entirely from
        // the first pairs).
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 18,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink, CallKind::Link])
        };
        let report = differential_campaign(&config);
        assert_eq!(report.tests_run, 18);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
        for pair in &report.pairs {
            assert!(
                pair.generated == 0 || pair.replayed > 0,
                "pair {:?} generated {} tests but replayed none",
                pair.calls,
                pair.generated
            );
        }
        // The budget must not be exhausted by one pair.
        let max_per_pair = report.pairs.iter().map(|p| p.replayed).max().unwrap();
        assert!(max_per_pair < 18);
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 10,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let a = differential_campaign(&config);
        let b = differential_campaign(&config);
        assert_eq!(a.tests_run, b.tests_run);
        assert_eq!(
            a.pairs.iter().map(|p| p.replayed).collect::<Vec<_>>(),
            b.pairs.iter().map(|p| p.replayed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_pool_generation_selects_the_same_corpus() {
        // Per-pair shuffle seeds are derived from pool order, so a
        // multi-worker phase 1 must yield the exact pools — and therefore
        // the exact budget selection — of a sequential run.
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 12,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink, CallKind::Link])
        };
        let sequential = differential_campaign(&config);
        let parallel = differential_campaign(&CampaignConfig {
            threads: 3,
            ..config
        });
        assert_eq!(sequential.tests_run, parallel.tests_run);
        assert_eq!(sequential.skip_reasons, parallel.skip_reasons);
        for (s, p) in sequential.pairs.iter().zip(&parallel.pairs) {
            assert_eq!(s.calls, p.calls);
            assert_eq!(s.generated, p.generated);
            assert_eq!(s.replayed, p.replayed);
            assert_eq!(s.skipped, p.skipped);
        }
        assert!(parallel.all_agree(), "{}", parallel.describe_mismatches());
    }

    #[test]
    fn ext_campaign_agrees_under_several_schedules() {
        let report = ext_campaign(4, 2);
        assert!(!report.outcomes.is_empty());
        assert_eq!(report.replays_run, report.outcomes.len() * 2);
        assert!(report.all_agree(), "{}", report.failures.join("\n"));
    }

    #[test]
    fn observed_campaign_narrates_pools_and_summary() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 8,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let events = EventLog::new();
        let report = differential_campaign_observed(&config, Some(&events));
        assert!(report.all_agree(), "{}", report.describe_mismatches());
        // Two calls → three unordered pairs, one pool event each.
        assert_eq!(events.of_kind("pair-pool").len(), 3);
        let done = events.of_kind("campaign-done");
        assert_eq!(done.len(), 1);
        let seed = done[0]
            .fields
            .iter()
            .find(|(k, _)| k == "seed")
            .map(|(_, v)| v.clone());
        assert_eq!(seed, Some(Json::U64(config.seed)));
    }

    #[test]
    fn chaos_campaign_linearizes_under_an_errno_storm() {
        // Covers all four fault kinds: open faults in the fs pairs, send
        // and recv faults in the socket pairs.
        let config = CampaignConfig {
            schedules_per_test: 2,
            max_tests: 18,
            ..CampaignConfig::new(&[
                CallKind::Open,
                CallKind::Unlink,
                CallKind::Send,
                CallKind::Recv,
            ])
        };
        let report = chaos_campaign(&config, &ChaosPlan::errno_storm(29));
        assert!(report.tests_run > 0);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
    }

    #[test]
    fn chaos_campaign_linearizes_under_delivery_delay() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 10,
            ..CampaignConfig::new(&[CallKind::Send, CallKind::Recv])
        };
        let report = chaos_campaign(&config, &ChaosPlan::delayed_delivery(31));
        assert!(report.tests_run > 0);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
    }

    #[test]
    fn chaos_replayer_with_disabled_plan_matches_host_replayer() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 8,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let plain = differential_campaign(&config);
        let chaos = chaos_campaign(&config, &ChaosPlan::none());
        assert!(plain.all_agree() && chaos.all_agree());
        assert_eq!(plain.tests_run, chaos.tests_run);
        assert_eq!(plain.replays_run, chaos.replays_run);
    }

    #[test]
    fn campaign_replays_each_test_under_every_schedule() {
        let config = CampaignConfig {
            schedules_per_test: 3,
            max_tests: 6,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let report = differential_campaign(&config);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
        assert_eq!(report.replays_run, report.tests_run * 3);
    }

    #[test]
    fn generated_triples_linearize_on_real_threads() {
        use scr_core::{
            analyze_triple, enumerate_triple_shapes, generate_triple_tests, triple_config,
        };
        let cfg = triple_config();
        let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
        let shapes =
            enumerate_triple_shapes((CallKind::Lseek, CallKind::Read, CallKind::Write), &cfg);
        let same_fd = shapes
            .iter()
            .find(|s| s.slots.iter().all(|sl| sl.fds == vec![0]))
            .expect("all-same-descriptor shape");
        let analysis = analyze_triple(same_fd, &cfg);
        let generated = generate_triple_tests(same_fd, &analysis.cases, &cfg, &names, 2);
        assert!(!generated.tests.is_empty(), "triple corpus must exist");
        let replayer = HostReplayer::default();
        for test in generated.tests.iter().take(8) {
            let host = replayer.replay_triple(test);
            assert!(
                triple_linearizes(test, &host),
                "host triple replay of {} matches no sequential order: {host:?}",
                test.id
            );
        }
    }
}
