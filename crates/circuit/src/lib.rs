//! # nck-circuit
//!
//! A gate-model quantum-computing substrate standing in for the
//! 65-qubit IBM Q system (ibmq_brooklyn) of the paper's evaluation:
//!
//! * [`complex`] / [`state`] — dense state-vector simulation of the
//!   `{h, x, rx, rz, cx, rzz, swap}` gate set (exact up to ~24
//!   qubits).
//! * [`gates`] — circuit IR with the §VIII-B depth metric.
//! * [`coupling`] / [`transpile`](mod@transpile) — heavy-hex-style coupling maps and a
//!   layout + SWAP-routing + basis-decomposition transpiler; routed
//!   depth is the Fig. 9/10 quantity.
//! * [`noise`] — global depolarizing + readout error.
//! * [`optim`] — Nelder–Mead, the classical QAOA outer loop.
//! * [`analytic`] — exact closed-form p=1 QAOA expectations (Ozaeta–van
//!   Dam–McMahon), enabling 65-qubit instances.
//! * [`qaoa`] — the assembled [`GateModelDevice`] with the
//!   `ibmq_brooklyn()` preset.
//! * [`mixer`] — Quantum Alternating Operator Ansatz mixers (XY rings
//!   for one-hot constraints), the paper's §IX future work.
//!
//! ```
//! use nck_circuit::GateModelDevice;
//! use nck_qubo::Qubo;
//!
//! // f(a, b) = ab − a − b.
//! let mut q = Qubo::new(2);
//! q.add_quadratic(0, 1, 1.0);
//! q.add_linear(0, -1.0);
//! q.add_linear(1, -1.0);
//!
//! let device = GateModelDevice::ideal(2);
//! let run = device.run_qaoa(&q, 1, 256, 40, 1).unwrap();
//! assert_eq!(run.best_energy, -1.0);
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod complex;
pub mod coupling;
pub mod gates;
pub mod grover;
pub mod mixer;
pub mod noise;
pub mod optim;
pub mod qaoa;
pub mod qasm;
pub mod state;
pub mod transpile;

pub use analytic::qaoa1_expectation;
pub use complex::Complex;
pub use coupling::CouplingMap;
pub use gates::{Circuit, Gate};
pub use grover::{grover_search, optimal_iterations, GroverResult};
pub use mixer::{qaoa_circuit_with_mixer, Mixer};
pub use noise::CircuitNoise;
pub use optim::{nelder_mead, nelder_mead_resumable, NmState, OptimResult};
pub use qaoa::{
    qaoa_circuit, qaoa_expectation_sim, GateModelDevice, QaoaError, QaoaRun, QaoaTimingModel,
};
pub use qasm::to_qasm;
pub use state::StateVector;
pub use transpile::{transpile, TranspileError, Transpiled};
