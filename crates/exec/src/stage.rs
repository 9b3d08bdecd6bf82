//! Per-stage wall-times and counters for one end-to-end execution —
//! the §VIII-C timing experiment as a first-class artifact instead of
//! ad-hoc `Instant::now()` pairs in each bench binary.
//!
//! The pipeline stages are `compile` → `embed` → `sample` → `decode` →
//! `classify`. Backends without a stage leave it at zero (the gate
//! model has no embedding; its optimize-and-sample loop is reported
//! under `sample`; the classical solver's search is likewise reported
//! under `sample`).

use std::time::Duration;

/// How an execution ended, for the CSV `outcome` column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StageOutcome {
    /// Clean first-attempt success, no retries or fallbacks.
    #[default]
    Ok,
    /// Succeeded, but only after at least one retry (embedding reseed
    /// or a supervisor retry of the whole attempt).
    Retried,
    /// Succeeded, but only via a fallback policy (clique embedding,
    /// analytic p = 1 QAOA) or a degradation-ladder step.
    FellBack,
}

impl StageOutcome {
    /// The CSV cell for this outcome.
    pub fn as_str(&self) -> &'static str {
        match self {
            StageOutcome::Ok => "ok",
            StageOutcome::Retried => "retried",
            StageOutcome::FellBack => "fell_back",
        }
    }
}

/// Wall-times and counters for one execution through the pipeline.
#[derive(Clone, Debug, Default)]
pub struct StageTimings {
    /// Program → QUBO compilation (zero-cost on a plan cache hit).
    pub compile: Duration,
    /// Minor embedding onto the hardware graph (annealer only;
    /// zero-cost on a backend embedding-cache hit).
    pub embed: Duration,
    /// The backend's own work: annealing reads, the QAOA
    /// optimize-and-sample loop, Grover search, or the classical
    /// branch-and-bound.
    pub sample: Duration,
    /// Projecting raw backend assignments down to program variables.
    pub decode: Duration,
    /// Classification against the optimality oracle (includes the
    /// oracle's classical solve the first time a plan needs it).
    pub classify: Duration,
    /// The plan served the compiled program from its cache.
    pub compile_cache_hit: bool,
    /// The annealer backend reused a cached minor embedding.
    pub embed_cache_hit: bool,
    /// Embedding attempts that failed and were retried with a fresh
    /// rip-up seed.
    pub embed_retries: u32,
    /// Fallbacks taken (clique embedding after heuristic failure;
    /// analytic p=1 QAOA after state-vector overflow).
    pub fallbacks: u32,
    /// Candidate assignments the backend returned for classification.
    pub candidates: usize,
    /// Supervisor attempt index this timing belongs to (0 for plain
    /// unsupervised runs and first attempts).
    pub attempt: u32,
    /// How the execution ended (overridden by the supervisor when it
    /// retried or degraded across attempts).
    pub outcome: StageOutcome,
}

impl StageTimings {
    /// Header for the CSV emitted by [`StageTimings::csv_rows`].
    pub const CSV_HEADER: &'static str = "label,stage,ms,outcome,attempts";

    /// The five pipeline stages in order, with their wall-times.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        [
            ("compile", self.compile),
            ("embed", self.embed),
            ("sample", self.sample),
            ("decode", self.decode),
            ("classify", self.classify),
        ]
    }

    /// Total wall-time across all stages.
    pub fn total(&self) -> Duration {
        self.stages().iter().map(|&(_, d)| d).sum()
    }

    /// The outcome for the CSV: an explicit `FellBack` marker wins;
    /// otherwise in-attempt counters decide (fallback taken →
    /// `fell_back`, any retry → `retried`, else `ok`). A failed run
    /// produces no report, so no row says it failed.
    pub fn effective_outcome(&self) -> StageOutcome {
        match self.outcome {
            StageOutcome::Ok => {
                if self.fallbacks > 0 {
                    StageOutcome::FellBack
                } else if self.embed_retries > 0 || self.attempt > 0 {
                    StageOutcome::Retried
                } else {
                    StageOutcome::Ok
                }
            }
            explicit => explicit,
        }
    }

    /// Total attempts this execution consumed (the attempt index is
    /// 0-based).
    pub fn attempts(&self) -> u32 {
        self.attempt + 1
    }

    /// One CSV row per stage (`label,stage,ms,outcome,attempts`),
    /// newline-terminated.
    pub fn csv_rows(&self, label: &str) -> String {
        let outcome = self.effective_outcome().as_str();
        let attempts = self.attempts();
        let mut out = String::new();
        for (stage, d) in self.stages() {
            out.push_str(&format!(
                "{label},{stage},{:.3},{outcome},{attempts}\n",
                d.as_secs_f64() * 1e3
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_one_row_per_stage() {
        let t = StageTimings {
            compile: Duration::from_millis(2),
            sample: Duration::from_millis(30),
            ..Default::default()
        };
        let csv = t.csv_rows("vc");
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("vc,compile,2.000,ok,1\n"), "{csv}");
        assert!(csv.contains("vc,sample,30.000,ok,1\n"));
        assert!(csv.contains("vc,decode,0.000,ok,1\n"));
    }

    #[test]
    fn total_sums_stages() {
        let t = StageTimings {
            embed: Duration::from_millis(5),
            classify: Duration::from_millis(7),
            ..Default::default()
        };
        assert_eq!(t.total(), Duration::from_millis(12));
    }

    #[test]
    fn outcome_column_reflects_retries_and_fallbacks() {
        let mut t = StageTimings::default();
        assert_eq!(t.effective_outcome(), StageOutcome::Ok);
        t.embed_retries = 2;
        assert_eq!(t.effective_outcome(), StageOutcome::Retried);
        t.fallbacks = 1;
        assert_eq!(t.effective_outcome(), StageOutcome::FellBack);
    }

    #[test]
    fn supervised_retry_shows_in_attempts_column() {
        let t = StageTimings { attempt: 2, ..Default::default() };
        assert_eq!(t.effective_outcome(), StageOutcome::Retried);
        assert!(t.csv_rows("x").starts_with("x,compile,0.000,retried,3\n"));
    }
}
