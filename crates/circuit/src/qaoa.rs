//! QAOA on the simulated gate-model device — the Qiskit-QAOA role in
//! the paper's pipeline (§V: "for circuit-model devices, NchooseK
//! expresses the QUBO as a problem Hamiltonian suitable for use with
//! the QAOA algorithm").
//!
//! The driver optimizes the 2p circuit parameters with Nelder–Mead,
//! evaluating ⟨H⟩ either on the exact state vector (small registers) or
//! with the analytic p=1 formula (large registers), degraded by the
//! transpiled circuit's depolarizing fidelity. Final sampling draws
//! `shots` bitstrings and returns the lowest-energy one, as Qiskit's
//! QAOA does.
//!
//! The exact path follows the diagonal-Hamiltonian simulation of QOKit
//! (Lykov et al., "Fast Simulation of High-Depth QAOA Circuits",
//! arXiv:2309.04841) as far as it stays bit-identical to replaying
//! [`qaoa_circuit`] gate by gate: a run tabulates the cost diagonal
//! `E(z)` of every basis state once, and each optimizer evaluation
//! starts from the uniform superposition instead of the Hadamard layer,
//! applies the cost and mixer layers, and reads ⟨H⟩ off the table.

use crate::analytic::qaoa1_expectation;
use crate::coupling::CouplingMap;
use crate::gates::{Circuit, Gate};
use crate::noise::CircuitNoise;
use crate::optim::{nelder_mead_resumable, NmState};
use crate::state::StateVector;
use crate::transpile::{transpile, Transpiled};
use nck_cancel::CancelToken;
use nck_qubo::{Ising, Qubo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Duration;

/// Errors from the QAOA pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QaoaError {
    /// More problem variables than device qubits (§VIII-B: "no NchooseK
    /// problem with more than 65 variables can be mapped onto
    /// ibmq_brooklyn").
    TooManyQubits {
        /// Variables required.
        needed: usize,
        /// Qubits available.
        available: usize,
    },
    /// Instance exceeds the exact simulator and has no analytic path
    /// (p > 1).
    TooLargeToSimulate {
        /// Variables required.
        needed: usize,
        /// Exact-simulation limit.
        sim_limit: usize,
    },
}

impl fmt::Display for QaoaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QaoaError::TooManyQubits { needed, available } => {
                write!(f, "problem needs {needed} qubits, device has {available}")
            }
            QaoaError::TooLargeToSimulate { needed, sim_limit } => write!(
                f,
                "{needed} qubits exceeds the {sim_limit}-qubit exact simulator and p > 1 has no analytic evaluator"
            ),
        }
    }
}

impl std::error::Error for QaoaError {}

/// Build the logical QAOA circuit for `ising` with per-layer mixer
/// angles `betas` and phase angles `gammas`.
pub fn qaoa_circuit(ising: &Ising, betas: &[f64], gammas: &[f64]) -> Circuit {
    let n = ising.num_spins();
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H(q));
    }
    qaoa_layers(ising, betas, gammas, |g| c.push(g));
    c
}

/// Emit the gates of [`qaoa_circuit`] after its Hadamard layer: one
/// phase separator and one mixer per (β, γ) pair.
fn qaoa_layers(ising: &Ising, betas: &[f64], gammas: &[f64], mut emit: impl FnMut(Gate)) {
    assert_eq!(betas.len(), gammas.len(), "one (β, γ) pair per layer");
    let n = ising.num_spins();
    for (&beta, &gamma) in betas.iter().zip(gammas) {
        // Phase separator e^{−iγ H}: bit 1 ↦ spin +1 means Z = −s, so
        // fields enter with a negated angle.
        for (q, h) in ising.fields() {
            emit(Gate::Rz(q, -2.0 * gamma * h));
        }
        for ((a, b), j) in ising.couplings() {
            emit(Gate::Rzz(a, b, 2.0 * gamma * j));
        }
        // Mixer e^{−iβ Σ X}.
        for q in 0..n {
            emit(Gate::Rx(q, 2.0 * beta));
        }
    }
}

/// The output state of [`qaoa_circuit`], bit-identical to running it
/// from |0…0⟩: the uniform superposition stands in for the Hadamard
/// layer.
fn qaoa_state(ising: &Ising, betas: &[f64], gammas: &[f64]) -> StateVector {
    let mut s = StateVector::uniform(ising.num_spins());
    qaoa_layers(ising, betas, gammas, |g| s.apply(g));
    s
}

/// The cost diagonal: `E(z)` of every basis state `z` of an `n ≤ 28`
/// spin register, as [`Ising::energy`] sums it.
fn energy_diagonal(ising: &Ising) -> Vec<f64> {
    (0..1u64 << ising.num_spins()).map(|z| ising.energy_bits(z)).collect()
}

/// Exact ⟨H⟩ of the QAOA state by state-vector simulation (any p,
/// small registers).
pub fn qaoa_expectation_sim(ising: &Ising, betas: &[f64], gammas: &[f64]) -> f64 {
    qaoa_state(ising, betas, gammas).expectation_diagonal(|z| ising.energy_bits(z))
}

/// IBM-cloud timing model for Fig. 11 and §VIII-C: "each job comprised
/// 4000 shots, … took between 7 and 23 seconds. We were unable to
/// determine any correlation between problem size and time per job."
#[derive(Clone, Copy, Debug)]
pub struct QaoaTimingModel {
    /// Minimum per-job device time.
    pub job_min: Duration,
    /// Maximum per-job device time.
    pub job_max: Duration,
    /// Classical optimization per job ("two to three seconds").
    pub classical_per_job: Duration,
}

impl QaoaTimingModel {
    /// The paper's observed band.
    pub fn ibmq_default() -> Self {
        QaoaTimingModel {
            job_min: Duration::from_secs(7),
            job_max: Duration::from_secs(23),
            classical_per_job: Duration::from_millis(2500),
        }
    }

    /// Sample one job's device time (size-independent, per the paper).
    pub fn job_time(&self, rng: &mut StdRng) -> Duration {
        let span = (self.job_max - self.job_min).as_secs_f64();
        self.job_min + Duration::from_secs_f64(rng.random::<f64>() * span)
    }
}

/// Result of a full QAOA execution.
#[derive(Clone, Debug)]
pub struct QaoaRun {
    /// Lowest-energy sampled assignment (bit per problem variable).
    pub best_assignment: Vec<bool>,
    /// Its energy under the input QUBO.
    pub best_energy: f64,
    /// The optimized noisy expectation ⟨H⟩.
    pub expectation: f64,
    /// Optimized mixer angles.
    pub betas: Vec<f64>,
    /// Optimized phase angles.
    pub gammas: Vec<f64>,
    /// Qubits used on the device (= problem variables; the compiler's
    /// per-constraint ancillas are already part of the QUBO).
    pub qubits_used: usize,
    /// Transpiled circuit depth (Fig. 9's metric).
    pub depth: usize,
    /// SWAPs inserted by routing.
    pub num_swaps: usize,
    /// Depolarizing fidelity of one transpiled circuit.
    pub fidelity: f64,
    /// Jobs submitted (optimizer iterations + the final sampling job).
    pub num_jobs: usize,
    /// Modeled total device + classical-optimizer time.
    pub estimated_time: Duration,
}

/// A simulated gate-model device with a QAOA driver.
#[derive(Clone, Debug)]
pub struct GateModelDevice {
    /// Hardware coupling map.
    pub coupling: CouplingMap,
    /// Noise parameters.
    pub noise: CircuitNoise,
    /// Timing model.
    pub timing: QaoaTimingModel,
    /// Largest register simulated exactly.
    pub sim_limit: usize,
}

impl GateModelDevice {
    /// The 65-qubit ibmq_brooklyn-scale preset.
    pub fn ibmq_brooklyn() -> Self {
        GateModelDevice {
            coupling: CouplingMap::ibmq_brooklyn(),
            noise: CircuitNoise::ibmq_default(),
            timing: QaoaTimingModel::ibmq_default(),
            sim_limit: 20,
        }
    }

    /// An ideal all-to-all device for tests.
    pub fn ideal(num_qubits: usize) -> Self {
        GateModelDevice {
            coupling: CouplingMap::full(num_qubits),
            noise: CircuitNoise::ideal(),
            timing: QaoaTimingModel::ibmq_default(),
            sim_limit: 20,
        }
    }

    /// Run QAOA with `layers` p-layers, `shots` per job, and at most
    /// `max_iter` optimizer iterations.
    pub fn run_qaoa(
        &self,
        qubo: &Qubo,
        layers: usize,
        shots: usize,
        max_iter: usize,
        seed: u64,
    ) -> Result<QaoaRun, QaoaError> {
        self.run_qaoa_resumable(
            qubo,
            layers,
            shots,
            max_iter,
            seed,
            &CancelToken::never(),
            None,
            &mut |_| {},
        )
    }

    /// [`run_qaoa`](Self::run_qaoa) under cooperative cancellation,
    /// with checkpoint/resume of the classical optimizer loop.
    ///
    /// The optimizer polls `cancel` between reflection cycles and, when
    /// it fires, the final sampling job runs with the best-so-far
    /// parameters — a deadline degrades parameter quality rather than
    /// discarding the run.
    ///
    /// `on_iter` fires after every reflection cycle with the
    /// optimizer's full [`NmState`] (the paper's per-job unit), and
    /// passing a restored state continues the run exactly where it
    /// died: the optimizer is deterministic and the final sampling job
    /// reseeds from `seed` alone, so a resumed run's [`QaoaRun`] is
    /// bit-identical to an uninterrupted one.
    #[allow(clippy::too_many_arguments)]
    pub fn run_qaoa_resumable(
        &self,
        qubo: &Qubo,
        layers: usize,
        shots: usize,
        max_iter: usize,
        seed: u64,
        cancel: &CancelToken,
        state: Option<NmState>,
        on_iter: &mut dyn FnMut(&NmState),
    ) -> Result<QaoaRun, QaoaError> {
        assert!(layers >= 1, "need at least one QAOA layer");
        let n = qubo.num_vars();
        if n > self.coupling.num_qubits() {
            return Err(QaoaError::TooManyQubits {
                needed: n,
                available: self.coupling.num_qubits(),
            });
        }
        let exact = n <= self.sim_limit;
        if !exact && layers > 1 {
            return Err(QaoaError::TooLargeToSimulate { needed: n, sim_limit: self.sim_limit });
        }
        // Autoscale (argmin-preserving) so angles land in a consistent
        // range; energies are reported against the original QUBO.
        let mut scaled = qubo.clone();
        let m = scaled.max_abs_coeff();
        if m > 0.0 {
            scaled.scale(1.0 / m);
        }
        let ising = scaled.to_ising();
        // Structure metrics from one representative transpilation
        // ("these circuits differ by the parameters of the gates, not
        // the type or number of gates", §VIII-B).
        let probe = qaoa_circuit(&ising, &vec![0.1; layers], &vec![0.1; layers]);
        let transpiled: Transpiled =
            transpile(&probe, &self.coupling).expect("qubit count already checked");
        let fidelity = self.noise.fidelity(&transpiled.circuit);
        // Uniform-mixture mean energy of the scaled problem: all ⟨s⟩
        // and ⟨ss⟩ vanish, leaving the offset.
        let e_mixed = ising.offset();
        // The cost diagonal, built once for every evaluation below.
        let diagonal = if exact { energy_diagonal(&ising) } else { Vec::new() };
        // Noisy expectation objective.
        let mut evaluate = |params: &[f64]| -> f64 {
            let (betas, gammas) = params.split_at(layers);
            let ideal = if exact {
                qaoa_state(&ising, betas, gammas).expectation_diagonal(|z| diagonal[z as usize])
            } else {
                qaoa1_expectation(&ising, betas[0], gammas[0])
            };
            fidelity * ideal + (1.0 - fidelity) * e_mixed
        };
        let mut x0 = Vec::with_capacity(2 * layers);
        x0.extend((0..layers).map(|l| 0.4 + 0.05 * l as f64)); // betas
        x0.extend((0..layers).map(|l| -0.4 - 0.05 * l as f64)); // gammas
        let opt = nelder_mead_resumable(
            &mut evaluate,
            &x0,
            0.3,
            max_iter,
            1e-7,
            &|| cancel.is_cancelled(),
            state,
            on_iter,
        );
        let (betas, gammas) = opt.x.split_at(layers);
        // Final sampling job.
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = self.sample(&ising, betas, gammas, fidelity, shots, &mut rng);
        let (mut best_bits, mut best_energy) = (0u64, f64::INFINITY);
        for bits in samples {
            let e = qubo.energy_bits(bits);
            if e < best_energy {
                best_energy = e;
                best_bits = bits;
            }
        }
        let num_jobs = opt.iterations + 1;
        let mut time = Duration::ZERO;
        for _ in 0..num_jobs {
            time += self.timing.job_time(&mut rng) + self.timing.classical_per_job;
        }
        Ok(QaoaRun {
            best_assignment: (0..n).map(|q| best_bits >> q & 1 == 1).collect(),
            best_energy,
            expectation: opt.fx,
            betas: betas.to_vec(),
            gammas: gammas.to_vec(),
            qubits_used: n,
            depth: transpiled.circuit.depth(),
            num_swaps: transpiled.num_swaps,
            fidelity,
            num_jobs,
            estimated_time: time,
        })
    }

    /// Draw `shots` bitstrings from the (noisy) QAOA output state.
    ///
    /// Small registers sample the exact state vector. Large registers
    /// cannot be sampled exactly; as documented in DESIGN.md, the
    /// substitute draws from a Metropolis sampler over the cost
    /// function whose quality tracks the analytic QAOA expectation —
    /// preserving "how good is the returned sample" while the depth,
    /// qubit, and fidelity metrics stay exact.
    fn sample(
        &self,
        ising: &Ising,
        betas: &[f64],
        gammas: &[f64],
        fidelity: f64,
        shots: usize,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        let n = ising.num_spins();
        let exact = n <= self.sim_limit;
        let ideal_samples: Vec<u64> = if exact {
            qaoa_state(ising, betas, gammas).sample_many(shots, rng)
        } else {
            // Metropolis chain at an inverse temperature chosen so the
            // chain's mean energy matches the analytic p=1 QAOA
            // expectation.
            let target = qaoa1_expectation(ising, betas[0], gammas[0]);
            metropolis_matched(ising, target, shots, rng)
        };
        ideal_samples
            .into_iter()
            .map(|bits| {
                let mut out = if rng.random::<f64>() < fidelity {
                    bits
                } else {
                    // Depolarized shot: uniform random bits.
                    rng.random::<u64>() & register_mask(n)
                };
                if self.noise.readout > 0.0 {
                    for q in 0..n {
                        if rng.random::<f64>() < self.noise.readout {
                            out ^= 1 << q;
                        }
                    }
                }
                out
            })
            .collect()
    }
}

/// The low `n` bits set: every bitstring of an `n`-qubit register,
/// `n ≤ 64` (a plain `(1 << n) - 1` overflows at 64).
fn register_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Sample from a Metropolis chain whose temperature is tuned (by
/// bisection on a pilot chain) so the mean energy ≈ `target`.
fn metropolis_matched(ising: &Ising, target: f64, shots: usize, rng: &mut StdRng) -> Vec<u64> {
    let n = ising.num_spins();
    assert!(n <= 64, "packed sampling limited to 64 spins");
    let chain_mean = |beta: f64, rng: &mut StdRng| -> f64 {
        let mut bits: u64 = rng.random::<u64>() & register_mask(n);
        let mut e = ising.energy_bits(bits);
        let mut acc = 0.0;
        let steps = 40 * n;
        for step in 0..steps {
            let q = rng.random_range(0..n);
            let cand = bits ^ (1 << q);
            let ce = ising.energy_bits(cand);
            if ce <= e || (-(beta * (ce - e))).exp() > rng.random::<f64>() {
                bits = cand;
                e = ce;
            }
            if step >= steps / 2 {
                acc += e;
            }
        }
        acc / (steps - steps / 2) as f64
    };
    // Bisection on β: higher β → lower mean energy.
    let (mut lo, mut hi) = (0.0f64, 8.0f64);
    for _ in 0..12 {
        let mid = (lo + hi) / 2.0;
        if chain_mean(mid, rng) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let beta = (lo + hi) / 2.0;
    // Production sampling: one chain, one sample per interval.
    let mut out = Vec::with_capacity(shots);
    let mut bits: u64 = rng.random::<u64>() & register_mask(n);
    let mut e = ising.energy_bits(bits);
    let burn = 20 * n;
    let stride = n.max(8);
    let mut step = 0usize;
    while out.len() < shots {
        let q = rng.random_range(0..n);
        let cand = bits ^ (1 << q);
        let ce = ising.energy_bits(cand);
        if ce <= e || (-(beta * (ce - e))).exp() > rng.random::<f64>() {
            bits = cand;
            e = ce;
        }
        step += 1;
        if step > burn && step.is_multiple_of(stride) {
            out.push(bits);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_qubo() -> Qubo {
        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, 1.0);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        q
    }

    #[test]
    fn ideal_device_solves_edge_qubo() {
        let dev = GateModelDevice::ideal(4);
        let run = dev.run_qaoa(&edge_qubo(), 1, 512, 60, 7).unwrap();
        assert_eq!(run.best_energy, -1.0);
        assert!(run.fidelity == 1.0);
        assert!(run.qubits_used == 2);
    }

    #[test]
    fn two_layers_at_least_as_good() {
        let dev = GateModelDevice::ideal(4);
        let p1 = dev.run_qaoa(&edge_qubo(), 1, 256, 60, 3).unwrap();
        let p2 = dev.run_qaoa(&edge_qubo(), 2, 256, 80, 3).unwrap();
        assert!(p2.expectation <= p1.expectation + 1e-6);
    }

    #[test]
    fn resumable_qaoa_matches_uninterrupted() {
        let dev = GateModelDevice::ideal(4);
        let q = edge_qubo();
        let cancel = CancelToken::never();
        let full = dev.run_qaoa(&q, 2, 128, 40, 7).unwrap();
        for cut in [1usize, 3, 10] {
            // Capture the optimizer state a crash after `cut` jobs
            // would have persisted.
            let mut snap: Option<NmState> = None;
            dev.run_qaoa_resumable(&q, 2, 128, 40, 7, &cancel, None, &mut |st| {
                if st.iterations == cut {
                    snap = Some(st.clone());
                }
            })
            .unwrap();
            let Some(snap) = snap else { continue };
            let resumed = dev
                .run_qaoa_resumable(&q, 2, 128, 40, 7, &cancel, Some(snap), &mut |_| {})
                .unwrap();
            assert_eq!(resumed.best_assignment, full.best_assignment, "cut {cut}");
            assert_eq!(resumed.best_energy.to_bits(), full.best_energy.to_bits(), "cut {cut}");
            assert_eq!(resumed.expectation.to_bits(), full.expectation.to_bits(), "cut {cut}");
            assert_eq!(resumed.num_jobs, full.num_jobs, "cut {cut}");
            assert_eq!(resumed.estimated_time, full.estimated_time, "cut {cut}");
            for (a, b) in resumed.betas.iter().zip(&full.betas) {
                assert_eq!(a.to_bits(), b.to_bits(), "cut {cut}");
            }
            for (a, b) in resumed.gammas.iter().zip(&full.gammas) {
                assert_eq!(a.to_bits(), b.to_bits(), "cut {cut}");
            }
        }
    }

    /// `Ising::energy` of basis state `bits`, through a `Vec<bool>`.
    fn energy_of(ising: &Ising, bits: u64) -> f64 {
        let spins: Vec<bool> = (0..ising.num_spins()).map(|q| bits >> q & 1 == 1).collect();
        ising.energy(&spins)
    }

    /// ⟨H⟩ the way it was first computed: replay the whole circuit from
    /// |0…0⟩ and sum `Ising::energy` over a `Vec<bool>` per basis state.
    fn expectation_by_replay(ising: &Ising, betas: &[f64], gammas: &[f64]) -> f64 {
        let mut s = StateVector::zero(ising.num_spins());
        s.run(&qaoa_circuit(ising, betas, gammas));
        s.expectation_diagonal(|bits| energy_of(ising, bits))
    }

    #[test]
    fn cached_diagonal_expectation_is_bit_identical_to_replay() {
        // Random Isings with some zero fields (each adds a signed zero
        // in `Ising::energy`), couplings and a nonzero offset.
        for case in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = 1 + case as usize % 12;
            let mut ising = Ising::new(n);
            for i in 0..n {
                if rng.random_range(0..4) != 0 {
                    ising.add_field(i, rng.random_range(-1.0..1.0));
                }
                for j in i + 1..n {
                    if rng.random_range(0..2) == 0 {
                        ising.add_coupling(i, j, rng.random_range(-1.0..1.0));
                    }
                }
            }
            ising.add_offset(rng.random_range(-1.0..1.0));
            let diagonal = energy_diagonal(&ising);
            for (z, e) in diagonal.iter().enumerate() {
                let reference = energy_of(&ising, z as u64);
                assert_eq!(e.to_bits(), reference.to_bits(), "case {case}, z = {z:b}");
            }
            for layers in [1, 2] {
                let betas: Vec<f64> = (0..layers).map(|_| rng.random_range(-1.5..1.5)).collect();
                let gammas: Vec<f64> = (0..layers).map(|_| rng.random_range(-1.5..1.5)).collect();
                let reference = expectation_by_replay(&ising, &betas, &gammas).to_bits();
                let cached = qaoa_state(&ising, &betas, &gammas)
                    .expectation_diagonal(|z| diagonal[z as usize]);
                assert_eq!(cached.to_bits(), reference, "case {case}, n = {n}, p = {layers}");
                let sim = qaoa_expectation_sim(&ising, &betas, &gammas);
                assert_eq!(sim.to_bits(), reference, "case {case}, n = {n}, p = {layers}");
            }
        }
    }

    #[test]
    fn too_many_qubits_rejected() {
        let mut q = Qubo::new(66);
        q.add_linear(65, 1.0);
        let dev = GateModelDevice::ibmq_brooklyn();
        match dev.run_qaoa(&q, 1, 10, 5, 1) {
            Err(QaoaError::TooManyQubits { needed: 66, available: 65 }) => {}
            other => panic!("expected TooManyQubits, got {other:?}"),
        }
    }

    #[test]
    fn large_instance_uses_analytic_path() {
        // 40 variables: beyond the exact simulator but fine at p = 1.
        let mut q = Qubo::new(40);
        for i in 0..39 {
            q.add_quadratic(i, i + 1, 1.0);
        }
        let dev = GateModelDevice::ibmq_brooklyn();
        let run = dev.run_qaoa(&q, 1, 64, 25, 5).unwrap();
        assert_eq!(run.qubits_used, 40);
        assert!(run.depth > 0);
        assert!(run.fidelity < 1.0);
        // p = 2 at this size must be rejected.
        match dev.run_qaoa(&q, 2, 64, 25, 5) {
            Err(QaoaError::TooLargeToSimulate { .. }) => {}
            other => panic!("expected TooLargeToSimulate, got {other:?}"),
        }
    }

    #[test]
    fn sixty_four_qubit_instance_samples_the_full_register() {
        // The packed sampler's limit: depolarized shots and Metropolis
        // starts draw from all 64 bits without shifting out of range.
        let mut q = Qubo::new(64);
        for i in 0..64 {
            q.add_quadratic(i, (i + 1) % 64, 1.0);
        }
        let dev = GateModelDevice::ibmq_brooklyn();
        let run = dev.run_qaoa(&q, 1, 64, 10, 5).unwrap();
        assert_eq!(run.qubits_used, 64);
        assert_eq!(run.best_assignment.len(), 64);
        assert!(run.best_energy.is_finite());
    }

    #[test]
    fn depth_and_swaps_grow_with_connectivity_mismatch() {
        // A dense 8-variable QUBO on brooklyn (degree ≤ 3) needs swaps.
        let mut q = Qubo::new(8);
        for i in 0..8 {
            for j in i + 1..8 {
                q.add_quadratic(i, j, 1.0);
            }
        }
        let dev = GateModelDevice::ibmq_brooklyn();
        let run = dev.run_qaoa(&q, 1, 32, 10, 2).unwrap();
        assert!(run.num_swaps > 0, "dense problem on heavy-hex needs swaps");
        let ideal = GateModelDevice::ideal(8).run_qaoa(&q, 1, 32, 10, 2).unwrap();
        assert!(run.depth > ideal.depth);
    }

    #[test]
    fn job_count_in_paper_band() {
        // §VIII-C: "approximately 25 to 35 jobs".
        let dev = GateModelDevice::ideal(4);
        let run = dev.run_qaoa(&edge_qubo(), 1, 128, 30, 11).unwrap();
        assert!(run.num_jobs <= 36, "jobs = {}", run.num_jobs);
        assert!(run.num_jobs >= 2);
        // Total time ≈ jobs × (7–23 s + ~2.5 s classical).
        let secs = run.estimated_time.as_secs_f64();
        assert!(secs >= run.num_jobs as f64 * 9.0);
        assert!(secs <= run.num_jobs as f64 * 25.5);
    }

    #[test]
    fn timing_model_band() {
        let t = QaoaTimingModel::ibmq_default();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let j = t.job_time(&mut rng);
            assert!(j >= Duration::from_secs(7) && j <= Duration::from_secs(23));
        }
    }

    #[test]
    fn metropolis_matches_target_energy() {
        let mut ising = Ising::new(10);
        for i in 0..9 {
            ising.add_coupling(i, i + 1, 1.0);
        }
        let mut rng = StdRng::seed_from_u64(8);
        let target = -3.0;
        let samples = metropolis_matched(&ising, target, 400, &mut rng);
        let mean: f64 =
            samples.iter().map(|&b| ising.energy_bits(b)).sum::<f64>() / samples.len() as f64;
        assert!((mean - target).abs() < 1.5, "mean {mean} vs target {target}");
    }

    #[test]
    fn noisy_device_degrades_with_scale() {
        // The same ring problem at two sizes: the bigger transpiled
        // circuit must have lower fidelity.
        let dev = GateModelDevice::ibmq_brooklyn();
        let small = {
            let mut q = Qubo::new(6);
            for i in 0..6 {
                q.add_quadratic(i, (i + 1) % 6, 1.0);
            }
            dev.run_qaoa(&q, 1, 64, 10, 3).unwrap()
        };
        let large = {
            let mut q = Qubo::new(18);
            for i in 0..18 {
                q.add_quadratic(i, (i + 1) % 18, 1.0);
            }
            dev.run_qaoa(&q, 1, 64, 10, 3).unwrap()
        };
        assert!(large.fidelity < small.fidelity);
        assert!(large.depth >= small.depth);
    }
}
