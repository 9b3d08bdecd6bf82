//! Nelder–Mead simplex optimizer — the classical outer loop of QAOA
//! (Qiskit's default COBYLA plays this role in the paper; both are
//! derivative-free direct-search methods).

/// Result of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Objective evaluations consumed.
    pub evaluations: usize,
    /// Optimizer iterations (one reflection cycle each) — the paper's
    /// "jobs" unit: each iteration submits circuits to the device.
    pub iterations: usize,
}

/// Minimize `f` starting from `x0` with Nelder–Mead.
///
/// `max_iter` bounds the reflection cycles; `tol` stops early when the
/// simplex's objective spread falls below it.
pub fn nelder_mead(
    f: &mut dyn FnMut(&[f64]) -> f64,
    x0: &[f64],
    step: f64,
    max_iter: usize,
    tol: f64,
) -> OptimResult {
    nelder_mead_resumable(f, x0, step, max_iter, tol, &|| false, None, &mut |_| {})
}

/// The optimizer's full mid-run state: the current simplex plus the
/// work counters. Capturing it after any reflection cycle and feeding
/// it back into [`nelder_mead_resumable`] continues the run exactly
/// where it left off — the optimizer is deterministic (no RNG), so a
/// resumed run replays the same evaluation sequence an uninterrupted
/// one would have produced.
#[derive(Clone, Debug, PartialEq)]
pub struct NmState {
    /// The simplex vertices with their objective values.
    pub simplex: Vec<(Vec<f64>, f64)>,
    /// Objective evaluations consumed so far.
    pub evaluations: usize,
    /// Reflection cycles completed so far (counts toward `max_iter`).
    pub iterations: usize,
}

/// [`nelder_mead`] with a cooperative stop callback and
/// checkpoint/resume.
///
/// `stop` is polled once per reflection cycle: when it returns true the
/// optimizer returns the best simplex vertex found so far (best-so-far
/// parameters, not a failure). The initial simplex is always built, so
/// the result is usable even when `stop` is already true on entry.
///
/// When `state` is `Some`, the initial simplex construction is skipped
/// and iteration continues from the restored counters (`max_iter`
/// bounds the *total* iterations across all resumes). `on_iter` fires
/// after every completed reflection cycle with the current state, for
/// persistence.
#[allow(clippy::too_many_arguments)]
pub fn nelder_mead_resumable(
    f: &mut dyn FnMut(&[f64]) -> f64,
    x0: &[f64],
    step: f64,
    max_iter: usize,
    tol: f64,
    stop: &dyn Fn() -> bool,
    state: Option<NmState>,
    on_iter: &mut dyn FnMut(&NmState),
) -> OptimResult {
    let n = x0.len();
    assert!(n >= 1, "need at least one parameter");
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut st = match state {
        Some(st) => {
            assert_eq!(st.simplex.len(), n + 1, "restored simplex dimension mismatch");
            st
        }
        None => {
            // Initial simplex: x0 plus a step along each axis.
            let mut evals = 0usize;
            let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
            evals += 1;
            let fx0 = f(x0);
            simplex.push((x0.to_vec(), fx0));
            for i in 0..n {
                let mut x = x0.to_vec();
                x[i] += step;
                evals += 1;
                let fx = f(&x);
                simplex.push((x, fx));
            }
            NmState { simplex, evaluations: evals, iterations: 0 }
        }
    };
    let mut eval = |x: &[f64], evals: &mut usize| {
        *evals += 1;
        f(x)
    };
    while st.iterations < max_iter {
        if stop() {
            break;
        }
        st.iterations += 1;
        st.simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let spread = st.simplex[n].1 - st.simplex[0].1;
        if spread.abs() < tol {
            break;
        }
        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (x, _) in &st.simplex[..n] {
            for (c, v) in centroid.iter_mut().zip(x) {
                *c += v / n as f64;
            }
        }
        let worst = st.simplex[n].clone();
        let reflect: Vec<f64> =
            centroid.iter().zip(&worst.0).map(|(c, w)| c + alpha * (c - w)).collect();
        let fr = eval(&reflect, &mut st.evaluations);
        if fr < st.simplex[0].1 {
            // Try expanding.
            let expand: Vec<f64> =
                centroid.iter().zip(&reflect).map(|(c, r)| c + gamma * (r - c)).collect();
            let fe = eval(&expand, &mut st.evaluations);
            st.simplex[n] = if fe < fr { (expand, fe) } else { (reflect, fr) };
        } else if fr < st.simplex[n - 1].1 {
            st.simplex[n] = (reflect, fr);
        } else {
            // Contract toward the centroid.
            let contract: Vec<f64> =
                centroid.iter().zip(&worst.0).map(|(c, w)| c + rho * (w - c)).collect();
            let fc = eval(&contract, &mut st.evaluations);
            if fc < worst.1 {
                st.simplex[n] = (contract, fc);
            } else {
                // Shrink toward the best point.
                let best = st.simplex[0].0.clone();
                for entry in &mut st.simplex[1..] {
                    let x: Vec<f64> =
                        best.iter().zip(&entry.0).map(|(b, v)| b + sigma * (v - b)).collect();
                    let fx = eval(&x, &mut st.evaluations);
                    *entry = (x, fx);
                }
            }
        }
        on_iter(&st);
    }
    st.simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let (x, fx) = st.simplex.swap_remove(0);
    OptimResult { x, fx, evaluations: st.evaluations, iterations: st.iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let mut f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let r = nelder_mead(&mut f, &[0.0, 0.0], 0.5, 200, 1e-12);
        assert!((r.x[0] - 3.0).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "x1 = {}", r.x[1]);
        assert!(r.fx < 1e-7);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let mut f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(&mut f, &[-1.2, 1.0], 0.5, 2000, 1e-14);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn one_dimensional() {
        let mut f = |x: &[f64]| (x[0].sin() - 1.0).powi(2);
        let r = nelder_mead(&mut f, &[0.1], 0.3, 300, 1e-12);
        assert!(r.fx < 1e-6);
    }

    #[test]
    fn respects_iteration_budget() {
        let mut count = 0usize;
        let mut f = |x: &[f64]| {
            count += 1;
            x[0] * x[0]
        };
        let r = nelder_mead(&mut f, &[5.0], 1.0, 10, 0.0);
        assert!(r.iterations <= 10);
        assert_eq!(r.evaluations, count);
    }

    #[test]
    fn tolerance_stops_early() {
        let mut f = |_: &[f64]| 1.0; // flat objective
        let r = nelder_mead(&mut f, &[0.0, 0.0], 1.0, 1000, 1e-9);
        assert!(r.iterations <= 2, "flat function should converge immediately");
    }

    #[test]
    fn resumable_matches_uninterrupted_bitwise() {
        fn rosenbrock(x: &[f64]) -> f64 {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        }
        let x0 = [-1.2, 1.0];
        let full = nelder_mead(&mut |x| rosenbrock(x), &x0, 0.5, 300, 1e-14);
        for cut in [1usize, 7, 50, 150, 300] {
            // Capture the optimizer state after `cut` cycles, as a
            // checkpoint written right before a crash would hold it.
            let mut snap: Option<NmState> = None;
            nelder_mead_resumable(
                &mut |x| rosenbrock(x),
                &x0,
                0.5,
                cut,
                1e-14,
                &|| false,
                None,
                &mut |st| {
                    if st.iterations == cut {
                        snap = Some(st.clone());
                    }
                },
            );
            let Some(snap) = snap else {
                // Converged before `cut` cycles: nothing left to resume.
                continue;
            };
            let resumed = nelder_mead_resumable(
                &mut |x| rosenbrock(x),
                &x0,
                0.5,
                300,
                1e-14,
                &|| false,
                Some(snap),
                &mut |_| {},
            );
            assert_eq!(resumed.iterations, full.iterations, "cut {cut}");
            assert_eq!(resumed.evaluations, full.evaluations, "cut {cut}");
            assert_eq!(resumed.fx.to_bits(), full.fx.to_bits(), "cut {cut}");
            for (a, b) in resumed.x.iter().zip(&full.x) {
                assert_eq!(a.to_bits(), b.to_bits(), "cut {cut}");
            }
        }
    }

    #[test]
    fn stop_callback_returns_best_so_far() {
        use std::cell::Cell;
        let mut f = |x: &[f64]| (x[0] - 3.0).powi(2);
        let budget = Cell::new(5usize);
        let stop = || {
            if budget.get() == 0 {
                true
            } else {
                budget.set(budget.get() - 1);
                false
            }
        };
        let r = nelder_mead_resumable(&mut f, &[0.0], 0.5, 1000, 0.0, &stop, None, &mut |_| {});
        assert!(r.iterations <= 5, "stopped run did {} iterations", r.iterations);
        // Stopped immediately: still returns a usable vertex.
        let r0 = nelder_mead_resumable(&mut f, &[0.0], 0.5, 1000, 0.0, &|| true, None, &mut |_| {});
        assert_eq!(r0.iterations, 0);
        assert!(r0.fx.is_finite());
    }
}
