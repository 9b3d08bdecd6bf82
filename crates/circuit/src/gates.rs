//! Circuit IR: the gate set used by the QAOA pipeline.

use std::fmt;

/// A quantum gate acting on one or two qubits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli-X.
    X(usize),
    /// Rotation about X by `theta`.
    Rx(usize, f64),
    /// Rotation about Z by `theta` (diagonal phase).
    Rz(usize, f64),
    /// Controlled-NOT (control, target).
    Cx(usize, usize),
    /// Two-qubit ZZ interaction `exp(−i θ/2 · Z⊗Z)` — the QAOA phase
    /// separator's native coupling gate.
    Rzz(usize, usize, f64),
    /// Two-qubit XY interaction `exp(−i θ/2 · (X⊗X + Y⊗Y)/2)`: swaps
    /// amplitude between |01⟩ and |10⟩, preserving Hamming weight —
    /// the building block of the Quantum Alternating Operator Ansatz
    /// mixers (§IX of the paper).
    Xy(usize, usize, f64),
    /// SWAP, inserted by the router for non-adjacent interactions.
    Swap(usize, usize),
}

impl Gate {
    /// The qubits the gate touches (one or two).
    pub fn qubits(&self) -> (usize, Option<usize>) {
        match *self {
            Gate::H(q) | Gate::X(q) | Gate::Rx(q, _) | Gate::Rz(q, _) => (q, None),
            Gate::Cx(a, b) | Gate::Rzz(a, b, _) | Gate::Xy(a, b, _) | Gate::Swap(a, b) => {
                (a, Some(b))
            }
        }
    }

    /// True for two-qubit gates.
    pub fn is_two_qubit(&self) -> bool {
        self.qubits().1.is_some()
    }

    /// Remap qubit indices through `f` (used by the router).
    pub fn remap(&self, f: impl Fn(usize) -> usize) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Rx(q, t) => Gate::Rx(f(q), t),
            Gate::Rz(q, t) => Gate::Rz(f(q), t),
            Gate::Cx(a, b) => Gate::Cx(f(a), f(b)),
            Gate::Rzz(a, b, t) => Gate::Rzz(f(a), f(b), t),
            Gate::Xy(a, b, t) => Gate::Xy(f(a), f(b), t),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::H(q) => write!(f, "h q{q}"),
            Gate::X(q) => write!(f, "x q{q}"),
            Gate::Rx(q, t) => write!(f, "rx({t:.4}) q{q}"),
            Gate::Rz(q, t) => write!(f, "rz({t:.4}) q{q}"),
            Gate::Cx(a, b) => write!(f, "cx q{a}, q{b}"),
            Gate::Rzz(a, b, t) => write!(f, "rzz({t:.4}) q{a}, q{b}"),
            Gate::Xy(a, b, t) => write!(f, "xy({t:.4}) q{a}, q{b}"),
            Gate::Swap(a, b) => write!(f, "swap q{a}, q{b}"),
        }
    }
}

/// A quantum circuit: an ordered gate list over `num_qubits` qubits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, gates: Vec::new() }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Append a gate.
    pub fn push(&mut self, g: Gate) {
        let (a, b) = g.qubits();
        assert!(a < self.num_qubits, "gate qubit {a} out of range");
        if let Some(b) = b {
            assert!(b < self.num_qubits, "gate qubit {b} out of range");
            assert_ne!(a, b, "two-qubit gate with identical operands");
        }
        self.gates.push(g);
    }

    /// The gate sequence.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total gate count.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Two-qubit gate count (the dominant noise source on hardware).
    pub fn num_two_qubit_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Circuit depth: "the number of gates in the longest path" (§VIII-B)
    /// — computed by leveling, where each gate sits one level above the
    /// deepest qubit it touches.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        for g in &self.gates {
            let (a, b) = g.qubits();
            let l = match b {
                Some(b) => level[a].max(level[b]) + 1,
                None => level[a] + 1,
            };
            level[a] = l;
            if let Some(b) = b {
                level[b] = l;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "qreg q[{}]", self.num_qubits)?;
        for g in &self.gates {
            writeln!(f, "{g}")?;
        }
        Ok(())
    }
}

/// A random circuit over `n ≥ 2` qubits with `1..max_gates` gates from
/// the full gate set (bar the router's SWAP), angles in `-3..3`: the
/// input of the simulator and transpiler sweeps.
#[cfg(test)]
pub(crate) fn random_circuit(rng: &mut impl rand::Rng, n: usize, max_gates: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..rng.random_range(1..max_gates) {
        let (kind, a, b) = (rng.random_range(0..7), rng.random_range(0..n), rng.random_range(0..n));
        let theta = rng.random_range(-3.0..3.0);
        let b = if a == b { (b + 1) % n } else { b };
        c.push(match kind {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Rx(a, theta),
            3 => Gate::Rz(a, theta),
            4 => Gate::Cx(a, b),
            5 => Gate::Rzz(a, b, theta),
            _ => Gate::Xy(a, b, theta),
        });
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_parallel_vs_serial() {
        // Two gates on different qubits: depth 1. Chained: depth grows.
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::H(1));
        assert_eq!(c.depth(), 1);
        c.push(Gate::Cx(0, 1));
        assert_eq!(c.depth(), 2);
        c.push(Gate::Cx(1, 2));
        assert_eq!(c.depth(), 3);
        c.push(Gate::H(0)); // parallel with the cx(1,2) level
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn counts() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Rzz(0, 1, 0.3));
        c.push(Gate::Rx(1, 0.5));
        assert_eq!(c.num_gates(), 3);
        assert_eq!(c.num_two_qubit_gates(), 1);
    }

    #[test]
    #[should_panic(expected = "identical operands")]
    fn rejects_degenerate_two_qubit_gate() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(1, 1));
    }

    #[test]
    fn remap() {
        let g = Gate::Rzz(0, 1, 0.7);
        assert_eq!(g.remap(|q| q + 2), Gate::Rzz(2, 3, 0.7));
    }

    #[test]
    fn empty_circuit_depth_zero() {
        assert_eq!(Circuit::new(4).depth(), 0);
    }
}
