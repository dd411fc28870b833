//! Deterministic chaos engine: seeded fault plans fired at named hook
//! points threaded through the scheduler stack.
//!
//! The stack calls [`FaultInjector::fire`] at every instrumented hook
//! point (worker round, terminal execution, router fast-path send,
//! escalation-lane job, session submission).  The injector counts visits
//! per hook and hands back the scripted [`Fault`] when a visit number in
//! the [`FaultPlan`] comes up — so the same plan against the same
//! workload replays the same fault at the same place, every run.
//!
//! Faults are *data*, not behaviour: each subsystem interprets the fault
//! it receives (a worker sleeps on `Stall`, drops dead on `Kill`; the
//! router fails the mailbox send on `SendFail`; the session layer flips
//! the live shed policy on `ShedFlip`).  A hook that receives a fault
//! variant it cannot express simply ignores it.
//!
//! Everything is reproducible from one `u64`: [`FaultPlan::seeded`]
//! derives a survivable plan from a seed via an internal splitmix64
//! stream, [`seed_from_env`] lets `CHAOS_SEED=<n>` override it, and
//! [`announce_seed_on_panic`] makes any panicking harness print the
//! one-command repro line.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

// ---------------------------------------------------------------------------
// Hook points
// ---------------------------------------------------------------------------

/// A named instrumentation point in the scheduler stack.
///
/// Hooks are identified by site *and* shard, so a plan can target one
/// worker of a sharded deployment while its peers run clean.  Unsharded
/// and passthrough deployments report their single execution loop as
/// shard `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Hook {
    /// Once per worker step, after the mail it follows.  `Stall` pauses the
    /// worker after the step; `Kill` turns the worker dead.
    WorkerRound {
        /// Shard whose loop is visiting the hook.
        shard: usize,
    },
    /// Immediately before a terminal (commit/rollback) request executes.
    /// `Stall` pauses the worker after the step, before its completions
    /// are published: the transaction's completion and the shard's next
    /// round wait out the stall.
    WorkerCommit {
        /// Shard executing the terminal request.
        shard: usize,
    },
    /// Immediately before the router's fast-path mailbox send to a shard
    /// worker.  `SendFail` fails the submission as if the mailbox were
    /// gone.
    RouterSend {
        /// Shard the transaction was routed to.
        shard: usize,
    },
    /// A cross-shard job entering the escalation lane's admission, on the
    /// submitting client's thread.  `Stall` delays that job's admission —
    /// and, since the client holds its transaction's homes stripe there,
    /// the submissions on that stripe.
    LaneJob,
    /// A two-phase `Prepare` reaching a participant shard, fired by that
    /// shard's worker before it votes.  `Stall` pauses the worker after the
    /// step in which it voted;
    /// `Kill` kills the participant mid-handshake, so the deciding shard
    /// must release every granted sibling and fail the escalation with a
    /// typed error.
    LanePrepare {
        /// Participant shard receiving the prepare.
        shard: usize,
    },
    /// Between a participant's granted vote and the execution of its
    /// commit-phase sub-batch, fired by that shard's worker.  `Stall`
    /// holds back the step's completions; `Kill` kills the participant before its slice
    /// executes.
    LaneCommit {
        /// Participant shard about to execute its sub-batch.
        shard: usize,
    },
    /// Top of the session layer's submission path — fires once per
    /// submission across every session of the deployment.  `ShedFlip`
    /// swaps the live shed policy mid-run.
    SessionSubmit,
}

impl Hook {
    /// Stable human-readable label (used in fired-fault records, docs and
    /// the chaos matrix output).
    pub fn label(&self) -> String {
        match self {
            Hook::WorkerRound { shard } => format!("worker-round/{shard}"),
            Hook::WorkerCommit { shard } => format!("worker-commit/{shard}"),
            Hook::RouterSend { shard } => format!("router-send/{shard}"),
            Hook::LaneJob => "lane-job".to_string(),
            Hook::LanePrepare { shard } => format!("lane-prepare/{shard}"),
            Hook::LaneCommit { shard } => format!("lane-commit/{shard}"),
            Hook::SessionSubmit => "session-submit".to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// A scripted fault, interpreted by the subsystem that owns the hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Sleep the visiting thread for `millis` wall-clock milliseconds.
    /// At [`Hook::WorkerCommit`] this is a lock-hold extension; at
    /// [`Hook::LaneJob`] an escalation-lane delay.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Kill the visiting worker: it fails everything it holds, reclaims
    /// its routing state and answers every later message with an error.
    /// Only meaningful at [`Hook::WorkerRound`].
    Kill,
    /// Fail the mailbox send: the submission is refused as if the shard
    /// worker's channel were closed.  Only meaningful at
    /// [`Hook::RouterSend`].
    SendFail,
    /// Swap the live overload-shedding policy.  Only meaningful at
    /// [`Hook::SessionSubmit`].  Fields mirror the session layer's
    /// `ShedPolicy` without depending on it.
    ShedFlip {
        /// `true` engages the policy below, `false` disengages shedding.
        enable: bool,
        /// Queue depth at which shedding engages.
        queue_watermark: usize,
        /// Minimum SLA priority that is never shed.
        protect_priority: i64,
    },
}

impl Fault {
    /// Stable human-readable label.
    pub fn label(&self) -> String {
        match self {
            Fault::Stall { millis } => format!("stall({millis}ms)"),
            Fault::Kill => "kill".to_string(),
            Fault::SendFail => "send-fail".to_string(),
            Fault::ShedFlip { enable, .. } => {
                format!("shed-flip({})", if *enable { "on" } else { "off" })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// One scripted injection: at the `at_visit`-th visit of `hook` (counting
/// from zero), deliver `fault`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEntry {
    /// Where the fault fires.
    pub hook: Hook,
    /// Zero-based visit count of `hook` at which the fault is delivered.
    /// A fault whose visit has already passed when it becomes next in
    /// line fires on the following visit — nothing is silently dropped.
    pub at_visit: u64,
    /// What happens.
    pub fault: Fault,
}

/// Backend shape a seeded plan is derived for, so the generated hooks
/// actually exist in the deployment under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendProfile {
    /// Single scheduler thread (middleware): loop hooks on shard 0.
    Unsharded,
    /// Router fleet: per-shard loop hooks, router sends, escalation lane.
    Sharded {
        /// Number of shard workers.
        shards: usize,
    },
    /// Single forward thread: loop hooks on shard 0.
    Passthrough,
}

/// A deterministic, replayable fault schedule.
///
/// Build one explicitly with [`FaultPlan::new`] + [`FaultPlan::inject`],
/// or derive a *survivable* plan from a seed with [`FaultPlan::seeded`]
/// — survivable meaning every injected fault (stalls, shed flips, a
/// routed send failure) leaves the deployment able to finish the run
/// with a clean invariant oracle and zero leaked routing state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-built plans); printed
    /// in repro lines.
    pub seed: u64,
    /// The scripted injections, in no particular order.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Script `fault` at the `at_visit`-th visit of `hook`.
    pub fn inject(mut self, hook: Hook, at_visit: u64, fault: Fault) -> Self {
        self.entries.push(FaultEntry {
            hook,
            at_visit,
            fault,
        });
        self
    }

    /// Record the seed a hand-tuned plan derives from.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derive a survivable fault plan for `profile` from `seed`.
    ///
    /// The plan mixes worker stalls, a lock-hold extension, a mid-run
    /// shed-policy flip (engage, then release), and — on sharded
    /// deployments — an escalation-lane delay, one fast-path send
    /// failure, and one mid-handshake participant kill at a
    /// [`Hook::LanePrepare`] point.  It never kills a worker *loop*
    /// ([`Hook::WorkerRound`] `Kill` plans are for targeted tests, not
    /// the matrix); the lane-prepare kill is survivable by construction
    /// because the deciding shard releases the held siblings and fails
    /// the escalation with a typed error.
    pub fn seeded(seed: u64, profile: BackendProfile) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut plan = FaultPlan::new().with_seed(seed);
        let shards = match profile {
            BackendProfile::Sharded { shards } => shards.max(1),
            _ => 1,
        };

        // A couple of loop stalls on a randomly chosen shard each.
        for _ in 0..2 {
            let shard = rng.below(shards as u64) as usize;
            plan = plan.inject(
                Hook::WorkerRound { shard },
                rng.range(2, 40),
                Fault::Stall {
                    millis: rng.range(1, 5),
                },
            );
        }
        // One artificial lock-hold extension.
        plan = plan.inject(
            Hook::WorkerCommit {
                shard: rng.below(shards as u64) as usize,
            },
            rng.range(1, 30),
            Fault::Stall {
                millis: rng.range(2, 8),
            },
        );
        // Engage shedding mid-run, release it later.  Watermark low
        // enough to plausibly engage, protection at the premium tier.
        let flip_on = rng.range(4, 24);
        plan = plan
            .inject(
                Hook::SessionSubmit,
                flip_on,
                Fault::ShedFlip {
                    enable: true,
                    queue_watermark: rng.range(2, 10) as usize,
                    protect_priority: 3,
                },
            )
            .inject(
                Hook::SessionSubmit,
                flip_on + rng.range(8, 40),
                Fault::ShedFlip {
                    enable: false,
                    queue_watermark: 0,
                    protect_priority: 0,
                },
            );
        if let BackendProfile::Sharded { .. } = profile {
            // Delay the serialized escalation lane once.
            plan = plan.inject(
                Hook::LaneJob,
                rng.range(0, 4),
                Fault::Stall {
                    millis: rng.range(1, 6),
                },
            );
            // Fail exactly one fast-path send.
            plan = plan.inject(
                Hook::RouterSend {
                    shard: rng.below(shards as u64) as usize,
                },
                rng.range(3, 30),
                Fault::SendFail,
            );
            // Kill one two-phase participant mid-handshake: the prepare
            // is refused, the initiator releases its held shards and the
            // escalation fails typed.  (The hook only fires if the
            // workload actually escalates — `unfired` reports it
            // otherwise.)
            plan = plan.inject(
                Hook::LanePrepare {
                    shard: rng.below(shards as u64) as usize,
                },
                rng.range(1, 12),
                Fault::Kill,
            );
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// The injector
// ---------------------------------------------------------------------------

/// Per-hook firing state: a visit counter plus the hook's scripted
/// faults, sorted by visit.
#[derive(Debug, Default)]
struct SlotState {
    visits: u64,
    next: usize,
    faults: Vec<(u64, Fault)>,
}

/// A record of one fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiredFault {
    /// The hook that delivered it.
    pub hook: Hook,
    /// The visit count at which it fired.
    pub at_visit: u64,
    /// The fault delivered.
    pub fault: Fault,
}

/// The runtime half of a [`FaultPlan`]: threads through the stack (one
/// per deployment) and answers [`FaultInjector::fire`] at every hook.
///
/// Thread-safe — hooks fire from worker threads and client sessions
/// concurrently; each hook's state sits
/// behind its own mutex so disjoint hooks never contend.
#[derive(Debug, Default)]
pub struct FaultInjector {
    slots: HashMap<Hook, Mutex<SlotState>>,
    fired: Mutex<Vec<FiredFault>>,
    seed: u64,
}

impl FaultInjector {
    /// Build the runtime injector for `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut slots: HashMap<Hook, Mutex<SlotState>> = HashMap::new();
        for entry in &plan.entries {
            slots
                .entry(entry.hook)
                .or_default()
                .get_mut()
                .expect("fresh mutex")
                .faults
                .push((entry.at_visit, entry.fault));
        }
        for slot in slots.values_mut() {
            slot.get_mut()
                .expect("fresh mutex")
                .faults
                .sort_by_key(|&(visit, _)| visit);
        }
        FaultInjector {
            slots,
            fired: Mutex::new(Vec::new()),
            seed: plan.seed,
        }
    }

    /// An injector that never fires — the default wired into deployments
    /// built without a chaos plan.
    pub fn disabled() -> Self {
        FaultInjector::default()
    }

    /// Whether this injector can ever deliver a fault.
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Seed of the plan this injector runs (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Count a visit of `hook` and return the scripted fault due at this
    /// visit, if any.  A fault whose visit was missed (the slot fell
    /// behind) fires on the next visit rather than being dropped.
    pub fn fire(&self, hook: Hook) -> Option<Fault> {
        let slot = self.slots.get(&hook)?;
        let mut state = slot.lock().unwrap_or_else(|poison| poison.into_inner());
        let visit = state.visits;
        state.visits += 1;
        if state.next < state.faults.len() && state.faults[state.next].0 <= visit {
            let fault = state.faults[state.next].1;
            state.next += 1;
            drop(state);
            self.fired
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .push(FiredFault {
                    hook,
                    at_visit: visit,
                    fault,
                });
            return Some(fault);
        }
        None
    }

    /// Every fault delivered so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone()
    }

    /// Scripted faults that have *not* fired yet — non-empty after a run
    /// means the plan targeted hooks the workload never visited often
    /// enough.
    pub fn unfired(&self) -> usize {
        self.slots
            .values()
            .map(|slot| {
                let state = slot.lock().unwrap_or_else(|poison| poison.into_inner());
                state.faults.len() - state.next
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Seeds, repro lines and the panic hook
// ---------------------------------------------------------------------------

/// The seed to run with: `CHAOS_SEED=<n>` from the environment if set
/// and parseable, else `default`.  Every chaos harness resolves its seed
/// through this so a failure's printed repro line actually works.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .unwrap_or(default)
}

/// The one-command repro line printed on failures.
pub fn repro_line(seed: u64) -> String {
    format!("reproduce with: CHAOS_SEED={seed}")
}

static ACTIVE_SEED: AtomicU64 = AtomicU64::new(u64::MAX);
static HOOK_INSTALL: Once = Once::new();

/// Record `seed` as the active chaos seed and (once per process) chain a
/// panic hook that prints its repro line, so any assertion failure in a
/// seeded harness tells the reader how to re-run it.
pub fn announce_seed_on_panic(seed: u64) {
    ACTIVE_SEED.store(seed, Ordering::SeqCst);
    HOOK_INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            let seed = ACTIVE_SEED.load(Ordering::SeqCst);
            if seed != u64::MAX {
                eprintln!("{}", repro_line(seed));
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Internal RNG (splitmix64) — keeps the crate dependency-free.
// ---------------------------------------------------------------------------

/// The splitmix64 stream: tiny, well-mixed, and exactly reproducible —
/// all the plan generator needs.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

impl fmt::Display for Hook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_fires_at_exact_visits() {
        let plan = FaultPlan::new()
            .inject(Hook::LaneJob, 2, Fault::Stall { millis: 1 })
            .inject(Hook::LaneJob, 4, Fault::Kill);
        let injector = FaultInjector::new(&plan);
        assert!(injector.is_enabled());
        assert_eq!(injector.fire(Hook::LaneJob), None); // visit 0
        assert_eq!(injector.fire(Hook::LaneJob), None); // visit 1
        assert_eq!(
            injector.fire(Hook::LaneJob),
            Some(Fault::Stall { millis: 1 })
        );
        assert_eq!(injector.fire(Hook::LaneJob), None); // visit 3
        assert_eq!(injector.fire(Hook::LaneJob), Some(Fault::Kill));
        assert_eq!(injector.fire(Hook::LaneJob), None);
        assert_eq!(injector.unfired(), 0);
        let fired = injector.fired();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].at_visit, 2);
        assert_eq!(fired[1].at_visit, 4);
    }

    #[test]
    fn hooks_are_independent_and_unknown_hooks_are_free() {
        let plan = FaultPlan::new().inject(Hook::WorkerRound { shard: 1 }, 0, Fault::Kill);
        let injector = FaultInjector::new(&plan);
        // A different shard's hook never fires.
        for _ in 0..10 {
            assert_eq!(injector.fire(Hook::WorkerRound { shard: 0 }), None);
        }
        assert_eq!(
            injector.fire(Hook::WorkerRound { shard: 1 }),
            Some(Fault::Kill)
        );
    }

    #[test]
    fn missed_visits_fire_late_not_never() {
        // Two faults scripted at the same visit: the second is delivered
        // on the following visit instead of being dropped.
        let plan = FaultPlan::new()
            .inject(Hook::SessionSubmit, 1, Fault::Stall { millis: 1 })
            .inject(Hook::SessionSubmit, 1, Fault::Stall { millis: 2 });
        let injector = FaultInjector::new(&plan);
        assert_eq!(injector.fire(Hook::SessionSubmit), None);
        assert!(injector.fire(Hook::SessionSubmit).is_some());
        assert!(injector.fire(Hook::SessionSubmit).is_some());
        assert_eq!(injector.unfired(), 0);
    }

    #[test]
    fn disabled_injector_never_fires() {
        let injector = FaultInjector::disabled();
        assert!(!injector.is_enabled());
        assert_eq!(injector.fire(Hook::SessionSubmit), None);
        assert!(injector.fired().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_survivable() {
        for profile in [
            BackendProfile::Unsharded,
            BackendProfile::Sharded { shards: 4 },
            BackendProfile::Passthrough,
        ] {
            let a = FaultPlan::seeded(42, profile);
            let b = FaultPlan::seeded(42, profile);
            assert_eq!(a, b, "same seed, same plan");
            let c = FaultPlan::seeded(43, profile);
            assert_ne!(a, c, "different seed, different plan");
            assert!(!a.entries.is_empty());
            for entry in &a.entries {
                if entry.fault == Fault::Kill {
                    // The only kill a seeded plan scripts is the sharded
                    // mid-handshake participant kill — worker loops are
                    // never killed.
                    assert!(
                        matches!(entry.hook, Hook::LanePrepare { .. }),
                        "seeded plans only kill at lane-prepare, got {}",
                        entry.hook
                    );
                }
                if let BackendProfile::Sharded { shards } = profile {
                    match entry.hook {
                        Hook::WorkerRound { shard }
                        | Hook::WorkerCommit { shard }
                        | Hook::RouterSend { shard }
                        | Hook::LanePrepare { shard }
                        | Hook::LaneCommit { shard } => assert!(shard < shards),
                        _ => {}
                    }
                } else {
                    match entry.hook {
                        Hook::WorkerRound { shard } | Hook::WorkerCommit { shard } => {
                            assert_eq!(shard, 0)
                        }
                        Hook::RouterSend { .. }
                        | Hook::LaneJob
                        | Hook::LanePrepare { .. }
                        | Hook::LaneCommit { .. } => {
                            panic!("router hooks in a non-sharded plan")
                        }
                        Hook::SessionSubmit => {}
                    }
                }
            }
        }
    }

    #[test]
    fn seed_env_parsing_and_repro_line() {
        assert_eq!(seed_from_env(7), 7); // unset in the test env
        assert_eq!(repro_line(42), "reproduce with: CHAOS_SEED=42");
    }
}
