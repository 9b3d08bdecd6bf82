//! The chaos suite: scripted fault sweeps through the resilience
//! supervisor, across degradation ladders and seeds.
//!
//! Every run takes a small generated program, arms one
//! [`FaultScript`] (a named [`FaultInjection`] plus where it applies
//! and what must happen), and executes a supervised degradation ladder
//! under a wall-clock deadline. The suite asserts the supervisor's
//! contract, not golden outputs:
//!
//! * **termination** — every run returns within its deadline plus a
//!   small cooperative-cancellation slack, stalls and all;
//! * **recovery** — scripts marked [`Expectation::Recovers`] must end
//!   in a report that passes the differential harness's consistency
//!   checks against the brute oracle;
//! * **typed failure** — scripts marked [`Expectation::FailsTyped`]
//!   must end in a [`SupervisedFailure`](nck_exec::SupervisedFailure)
//!   carrying a typed [`ExecError`](nck_exec::ExecError) with
//!   backend/stage provenance;
//! * **journal completeness** — success or failure, the journal is
//!   closed by a terminal event and records at least the attempts the
//!   script forced.

use crate::gen::Family;
use crate::harness::check_report;
use crate::Discrepancy;
use nck_anneal::AnnealerDevice;
use nck_circuit::GateModelDevice;
use nck_classical::solve_brute;
use nck_exec::{
    AnnealerBackend, Backend, ClassicalBackend, ExecutionPlan, FaultInjection, GateModelBackend,
    RetryPolicy, RunBudget, Supervisor,
};
use std::time::{Duration, Instant};

/// What a fault script must do to a supervised run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The supervisor must recover: retries, fallbacks, or the ladder
    /// absorb the faults and the run ends in a consistent report.
    Recovers,
    /// The faults are beyond recovery: the run must end in a typed
    /// [`SupervisedFailure`](nck_exec::SupervisedFailure) — never a
    /// hang, never a panic.
    FailsTyped,
}

/// One named chaos scenario.
#[derive(Clone, Copy, Debug)]
pub struct FaultScript {
    /// Script name (appears in discrepancy reports).
    pub name: &'static str,
    /// The faults to inject.
    pub faults: FaultInjection,
    /// Inject into every ladder rung (`true`) or only the first rung
    /// (`false`, the "one bad substrate, healthy fallbacks" shape).
    pub every_rung: bool,
    /// Wall-clock deadline override for this script (else
    /// [`ChaosConfig::deadline`]).
    pub deadline: Option<Duration>,
    /// What must happen.
    pub expect: Expectation,
}

impl FaultScript {
    const fn recovers(name: &'static str, faults: FaultInjection, every_rung: bool) -> Self {
        FaultScript { name, faults, every_rung, deadline: None, expect: Expectation::Recovers }
    }

    const fn fails(name: &'static str, faults: FaultInjection, every_rung: bool) -> Self {
        FaultScript { name, faults, every_rung, deadline: None, expect: Expectation::FailsTyped }
    }
}

/// The standard chaos corpus: ≥20 distinct fault scripts spanning the
/// whole fault plane — latency, stalls, transient-then-ok failures,
/// chain-break storms, embedding failures, simulator overflows, their
/// combinations, and pathological budgets.
pub fn chaos_scripts() -> Vec<FaultScript> {
    let ms = Duration::from_millis;
    let mut scripts = vec![
        FaultScript::recovers("baseline", FaultInjection::none(), false),
        FaultScript::recovers("latency-20ms", FaultInjection::latency(ms(20)), false),
        FaultScript::recovers("latency-150ms", FaultInjection::latency(ms(150)), false),
        FaultScript::recovers("latency-everywhere-30ms", FaultInjection::latency(ms(30)), true),
        // A first rung that would hang forever: the rung deadline must
        // cut it loose and the ladder must rescue the run.
        FaultScript::recovers("stall-first-rung", FaultInjection::stall(ms(10_000)), false),
        // Every rung wedged: nothing can rescue this, but the run must
        // still end, in budget, with a typed error.
        FaultScript::fails("stall-everywhere", FaultInjection::stall(ms(10_000)), true),
        FaultScript::recovers("transient-1", FaultInjection::transient_failures(1), false),
        FaultScript::recovers("transient-2", FaultInjection::transient_failures(2), false),
        // More transient failures than the retry budget: the rung
        // exhausts (or its breaker opens) and the ladder rescues.
        FaultScript::recovers(
            "transient-5-first-rung",
            FaultInjection::transient_failures(5),
            false,
        ),
        FaultScript::recovers(
            "transient-1-everywhere",
            FaultInjection::transient_failures(1),
            true,
        ),
        FaultScript::fails("transient-5-everywhere", FaultInjection::transient_failures(5), true),
        // Breaker territory: enough failures to trip the default
        // breaker on the first rung; the rungs below rescue.
        FaultScript::recovers(
            "breaker-trip-first-rung",
            FaultInjection::transient_failures(10),
            false,
        ),
        FaultScript::recovers("storm-1", FaultInjection::chain_break_storms(1), false),
        FaultScript::recovers("storm-3", FaultInjection::chain_break_storms(3), false),
        FaultScript::recovers("storm-everywhere-1", FaultInjection::chain_break_storms(1), true),
        FaultScript::recovers("embed-retry", FaultInjection::embed_failures(1), false),
        FaultScript::recovers("embed-clique-fallback", FaultInjection::embed_failures(4), false),
        FaultScript::recovers("qaoa-overflow", FaultInjection::qaoa_overflow(), false),
        FaultScript::recovers("qaoa-overflow-everywhere", FaultInjection::qaoa_overflow(), true),
        FaultScript::recovers(
            "latency+transient",
            FaultInjection { latency: ms(20), transient_failures: 1, ..FaultInjection::none() },
            false,
        ),
        FaultScript::recovers(
            "storm+embed-fallback",
            FaultInjection { chain_break_storms: 1, embed_failures: 4, ..FaultInjection::none() },
            false,
        ),
        FaultScript::recovers(
            "transient+overflow",
            FaultInjection { transient_failures: 1, qaoa_overflow: true, ..FaultInjection::none() },
            true,
        ),
    ];
    scripts.push(FaultScript {
        name: "zero-deadline",
        faults: FaultInjection::none(),
        every_rung: false,
        deadline: Some(Duration::ZERO),
        expect: Expectation::FailsTyped,
    });
    scripts.push(FaultScript {
        name: "tiny-deadline-stalled",
        faults: FaultInjection::stall(ms(10_000)),
        every_rung: true,
        deadline: Some(ms(5)),
        expect: Expectation::FailsTyped,
    });
    scripts
}

/// Knobs bounding a chaos sweep.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Default wall-clock deadline per supervised run.
    pub deadline: Duration,
    /// Slack allowed past the deadline: cooperative cancellation is
    /// polled, not preemptive, and debug-build stages are slow.
    pub slack: Duration,
    /// Annealer reads per job.
    pub reads: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            deadline: Duration::from_millis(1500),
            slack: Duration::from_millis(1000),
            reads: 16,
        }
    }
}

/// The standard ladder shapes the sweep exercises: the full
/// quantum-first degradation ladder and the annealer-first production
/// shape. (Grover is absent by design — the generated programs carry
/// soft constraints it cannot express.)
pub const LADDERS: [&[&str]; 2] = [&["gate", "annealer", "classical"], &["annealer", "classical"]];

/// Aggregate result of a chaos sweep.
#[derive(Clone, Debug, Default)]
pub struct ChaosOutcome {
    /// Supervised runs executed (scripts × ladders × seeds).
    pub runs: usize,
    /// Runs that ended in a report.
    pub recovered: usize,
    /// Runs that ended in a typed failure.
    pub failed: usize,
    /// Every violated expectation.
    pub discrepancies: Vec<Discrepancy>,
}

impl ChaosOutcome {
    /// Render all discrepancies, one per line (for assertion messages).
    pub fn report(&self) -> String {
        self.discrepancies.iter().map(|d| format!("{d}\n")).collect()
    }
}

/// Build one rung by name, arming it with `faults`.
fn build_rung(
    name: &str,
    qubo_vars: usize,
    faults: FaultInjection,
    cfg: &ChaosConfig,
) -> Box<dyn Backend> {
    let n = qubo_vars.max(2);
    match name {
        // p = 2 keeps the analytic p = 1 fallback path live for the
        // overflow scripts.
        "gate" => Box::new(
            GateModelBackend::new(GateModelDevice::ideal(n), 2, 128, 8).with_faults(faults),
        ),
        "annealer" => {
            Box::new(AnnealerBackend::new(AnnealerDevice::ideal(n), cfg.reads).with_faults(faults))
        }
        "classical" => Box::new(ClassicalBackend::default().with_faults(faults)),
        other => panic!("unknown ladder rung {other:?}"),
    }
}

/// Run the full chaos sweep: every script × every ladder × every seed,
/// asserting termination, recovery/typed-failure expectations, and
/// journal completeness.
pub fn run_chaos(scripts: &[FaultScript], seeds: &[u64], cfg: &ChaosConfig) -> ChaosOutcome {
    let mut outcome = ChaosOutcome::default();
    for script in scripts {
        for ladder_names in LADDERS {
            for &seed in seeds {
                outcome.runs += 1;
                let gp = Family::VertexCover.generate(seed);
                let brute = solve_brute(&gp.program)
                    .expect("generated vertex-cover instances are satisfiable");
                let plan = ExecutionPlan::new(&gp.program);
                let qubo_vars = plan.compiled().expect("chaos instances compile").qubo.num_vars();
                let rungs: Vec<Box<dyn Backend>> = ladder_names
                    .iter()
                    .enumerate()
                    .map(|(i, name)| {
                        let armed = if script.every_rung || i == 0 {
                            script.faults
                        } else {
                            FaultInjection::none()
                        };
                        build_rung(name, qubo_vars, armed, cfg)
                    })
                    .collect();
                let ladder: Vec<&dyn Backend> = rungs.iter().map(|b| b.as_ref()).collect();

                let deadline = script.deadline.unwrap_or(cfg.deadline);
                let sup = Supervisor {
                    budget: RunBudget::with_deadline(deadline),
                    retry: RetryPolicy {
                        base: Duration::from_millis(1),
                        cap: Duration::from_millis(10),
                        seed,
                        ..RetryPolicy::default()
                    },
                    ..Supervisor::default()
                };
                let tag = format!("chaos/{}/{}/seed{}", script.name, ladder_names.join(">"), seed);
                let t = Instant::now();
                let result = sup.run(&plan, &ladder, seed);
                let elapsed = t.elapsed();

                // Termination: deadline + cooperative slack, always.
                if elapsed > deadline + cfg.slack {
                    outcome.discrepancies.push(Discrepancy::new(
                        &tag,
                        "termination",
                        format!("ran {elapsed:?}, deadline {deadline:?} + slack {:?}", cfg.slack),
                    ));
                }
                match result {
                    Ok(report) => {
                        outcome.recovered += 1;
                        if script.expect == Expectation::FailsTyped {
                            outcome.discrepancies.push(Discrepancy::new(
                                &tag,
                                "expected-failure",
                                format!(
                                    "script must fail but produced a {} report",
                                    report.quality
                                ),
                            ));
                        }
                        if !report.journal.is_complete() {
                            outcome.discrepancies.push(Discrepancy::new(
                                &tag,
                                "journal-complete",
                                "successful run's journal lacks a terminal event".to_string(),
                            ));
                        }
                        check_report(&gp, &brute, &report, &mut outcome.discrepancies);
                    }
                    Err(failure) => {
                        outcome.failed += 1;
                        if script.expect == Expectation::Recovers {
                            outcome.discrepancies.push(Discrepancy::new(
                                &tag,
                                "expected-recovery",
                                format!(
                                    "recoverable script failed: {}\n{}",
                                    failure.error,
                                    failure.journal.render()
                                ),
                            ));
                        }
                        if !failure.journal.is_complete() {
                            outcome.discrepancies.push(Discrepancy::new(
                                &tag,
                                "journal-complete",
                                "failed run's journal lacks a terminal event".to_string(),
                            ));
                        }
                        if failure.error.backend.is_empty() || failure.error.stage.is_empty() {
                            outcome.discrepancies.push(Discrepancy::new(
                                &tag,
                                "error-provenance",
                                format!(
                                    "failure lacks backend/stage provenance: {}",
                                    failure.error
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    outcome
}
