//! Dense state-vector simulation.
//!
//! Exact simulation of the gate set in [`crate::gates`]. Practical up to
//! ~24 qubits (16M amplitudes); larger QAOA instances use the analytic
//! p=1 evaluator instead ([`crate::analytic`]).
//!
//! QAOA's hot path is served by two exact shortcuts, each bit-identical
//! to the generic gate replay it replaces:
//! - `StateVector::uniform` is the output of a Hadamard on every qubit
//!   of |0…0⟩.
//! - The diagonal gates `Rz` and `Rzz` multiply whole runs of
//!   amplitudes by one constant phase: contiguous half-blocks when the
//!   phase's bit pattern has a long period, and a 16-entry phase table
//!   repeated over the register when it depends only on the low four
//!   index bits. Every amplitude still gets exactly one `a * phase`.

use crate::complex::Complex;
use crate::gates::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::Rng;

/// Period of a phase pattern that depends only on the low four index
/// bits; such a pattern is applied as one table of this many phases.
const TABLE: usize = 16;

/// A pure quantum state over `n` qubits (amplitude `i` ↔ basis state
/// with bit `q` of `i` giving qubit `q`).
#[derive(Clone, Debug)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// |0…0⟩.
    pub fn zero(num_qubits: usize) -> Self {
        assert!(num_qubits <= 28, "state vector limited to 28 qubits");
        let mut amps = vec![Complex::ZERO; 1 << num_qubits];
        amps[0] = Complex::ONE;
        StateVector { num_qubits, amps }
    }

    /// The uniform superposition, bit-identical to a Hadamard on every
    /// qubit of [`zero`](Self::zero): each Hadamard multiplies the one
    /// nonzero amplitude of its pair by `1/√2` and adds a zero, so every
    /// amplitude is `1.0` times `1/√2`, `num_qubits` times over.
    pub(crate) fn uniform(num_qubits: usize) -> Self {
        assert!(num_qubits <= 28, "state vector limited to 28 qubits");
        let mut a = 1.0;
        for _ in 0..num_qubits {
            a *= std::f64::consts::FRAC_1_SQRT_2;
        }
        StateVector { num_qubits, amps: vec![Complex::new(a, 0.0); 1 << num_qubits] }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Amplitude of basis state `i`.
    pub fn amp(&self, i: usize) -> Complex {
        self.amps[i]
    }

    /// Overwrite the amplitude of basis state `i` (used by the Grover
    /// oracle; the caller is responsible for keeping the state
    /// normalized).
    pub fn set_amp(&mut self, i: usize, a: Complex) {
        self.amps[i] = a;
    }

    /// Probability of basis state `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.amps[i].norm_sqr()
    }

    /// Σ|amp|² (should stay 1 within rounding).
    pub fn total_probability(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Apply a single gate.
    pub fn apply(&mut self, g: Gate) {
        match g {
            Gate::H(q) => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                self.single_qubit(
                    q,
                    [
                        [Complex::new(s, 0.0), Complex::new(s, 0.0)],
                        [Complex::new(s, 0.0), Complex::new(-s, 0.0)],
                    ],
                );
            }
            Gate::X(q) => {
                self.single_qubit(
                    q,
                    [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
                );
            }
            Gate::Rx(q, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                self.single_qubit(
                    q,
                    [
                        [Complex::new(c, 0.0), Complex::new(0.0, -s)],
                        [Complex::new(0.0, -s), Complex::new(c, 0.0)],
                    ],
                );
            }
            Gate::Rz(q, t) => {
                // diag(e^{−iθ/2}, e^{+iθ/2})
                let neg = Complex::cis(-t / 2.0);
                let pos = Complex::cis(t / 2.0);
                phase_halves(&mut self.amps, q, neg, pos);
            }
            Gate::Rzz(a, b, t) => {
                // diag phase e^{−iθ/2·(±1)} by the parity of bits a, b.
                assert_ne!(a, b, "two-qubit gate with identical operands");
                let (lo, hi) = (a.min(b), a.max(b));
                assert!(hi < self.num_qubits, "qubit {hi} out of range");
                let even = Complex::cis(-t / 2.0);
                let odd = Complex::cis(t / 2.0);
                let half = 1usize << hi;
                if half < TABLE {
                    phase_table(&mut self.amps, |i| {
                        if (i >> a & 1) ^ (i >> b & 1) == 1 {
                            odd
                        } else {
                            even
                        }
                    });
                } else {
                    // Bit `hi` splits each block into halves; bit `lo`
                    // picks the phase inside a half, the other way round
                    // in the upper one.
                    for block in self.amps.chunks_exact_mut(half << 1) {
                        let (low, high) = block.split_at_mut(half);
                        phase_halves(low, lo, even, odd);
                        phase_halves(high, lo, odd, even);
                    }
                }
            }
            Gate::Xy(a, b, t) => {
                // Rotate in the span of |…0a…1b…⟩ and |…1a…0b…⟩:
                // amplitudes with unequal bits a, b mix with
                // cos(θ/2) and −i·sin(θ/2).
                let (cth, sth) = ((t / 2.0).cos(), (t / 2.0).sin());
                let ma = 1usize << a;
                let mb = 1usize << b;
                for i in 0..self.amps.len() {
                    // Enumerate each unequal pair once via (a=1, b=0).
                    if i & ma != 0 && i & mb == 0 {
                        let j = (i & !ma) | mb;
                        let hi = self.amps[i];
                        let lo = self.amps[j];
                        let minus_i_s = Complex::new(0.0, -sth);
                        self.amps[i] = hi.scale(cth) + minus_i_s * lo;
                        self.amps[j] = lo.scale(cth) + minus_i_s * hi;
                    }
                }
            }
            Gate::Cx(c, t) => {
                let mask_c = 1usize << c;
                let mask_t = 1usize << t;
                // Swap amplitude pairs where the control is 1.
                let n = self.amps.len();
                let amps = &mut self.amps;
                for i in 0..n {
                    if i & mask_c != 0 && i & mask_t == 0 {
                        amps.swap(i, i | mask_t);
                    }
                }
            }
            Gate::Swap(a, b) => {
                let ma = 1usize << a;
                let mb = 1usize << b;
                let n = self.amps.len();
                for i in 0..n {
                    if i & ma != 0 && i & mb == 0 {
                        self.amps.swap(i, (i & !ma) | mb);
                    }
                }
            }
        }
    }

    /// Apply every gate of `circuit` in order.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.num_qubits, "register size mismatch");
        for &g in circuit.gates() {
            self.apply(g);
        }
    }

    fn single_qubit(&mut self, q: usize, m: [[Complex; 2]; 2]) {
        // Indices sharing the bits above q form contiguous blocks of
        // 2·2^q amplitudes; each pairs its low half (bit q = 0) with its
        // high half (bit q = 1).
        let mask = 1usize << q;
        for block in self.amps.chunks_mut(mask << 1) {
            let (low, high) = block.split_at_mut(mask);
            for (a0, a1) in low.iter_mut().zip(high) {
                (*a0, *a1) = (m[0][0] * *a0 + m[0][1] * *a1, m[1][0] * *a0 + m[1][1] * *a1);
            }
        }
    }

    /// Expectation of a diagonal observable `E(i)` (e.g. a QUBO/Ising
    /// energy over basis states).
    pub fn expectation_diagonal(&self, energy: impl Fn(u64) -> f64) -> f64 {
        self.amps.iter().enumerate().map(|(i, a)| a.norm_sqr() * energy(i as u64)).sum()
    }

    /// Sample one basis state from |amp|².
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let mut r: f64 = rng.random();
        for (i, a) in self.amps.iter().enumerate() {
            r -= a.norm_sqr();
            if r <= 0.0 {
                return i as u64;
            }
        }
        (self.amps.len() - 1) as u64
    }

    /// Sample `shots` basis states.
    pub fn sample_many(&self, shots: usize, rng: &mut StdRng) -> Vec<u64> {
        // Cumulative distribution + binary search: O((N + s) log N).
        let mut cdf = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0;
        for a in &self.amps {
            acc += a.norm_sqr();
            cdf.push(acc);
        }
        (0..shots)
            .map(|_| {
                let r: f64 = rng.random::<f64>() * acc;
                cdf.partition_point(|&c| c < r).min(self.amps.len() - 1) as u64
            })
            .collect()
    }
}

/// Multiply amplitude `i` of `amps` by `zero` where bit `q` of `i` is
/// 0 and by `one` where it is 1 (`amps` starts at a multiple of
/// `2^(q+1)`).
fn phase_halves(amps: &mut [Complex], q: usize, zero: Complex, one: Complex) {
    let half = 1usize << q;
    assert!(half < amps.len(), "qubit {q} out of range");
    if half < TABLE {
        phase_table(amps, |i| if i & half == 0 { zero } else { one });
        return;
    }
    for block in amps.chunks_exact_mut(half << 1) {
        let (low, high) = block.split_at_mut(half);
        for a in low {
            *a = *a * zero;
        }
        for a in high {
            *a = *a * one;
        }
    }
}

/// Multiply amplitude `i` of `amps` by `phase(i % TABLE)`: a phase that
/// depends only on the low four index bits, tabulated once.
fn phase_table(amps: &mut [Complex], phase: impl Fn(usize) -> Complex) {
    let table: [Complex; TABLE] = std::array::from_fn(phase);
    let mut chunks = amps.chunks_exact_mut(TABLE);
    for chunk in &mut chunks {
        for (a, p) in chunk.iter_mut().zip(&table) {
            *a = *a * *p;
        }
    }
    for (a, p) in chunks.into_remainder().iter_mut().zip(&table) {
        *a = *a * *p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn hadamard_uniform_superposition() {
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply(Gate::H(q));
        }
        for i in 0..8 {
            assert!(close(s.prob(i), 0.125), "p({i}) = {}", s.prob(i));
        }
        assert!(close(s.total_probability(), 1.0));
    }

    #[test]
    fn x_flips() {
        let mut s = StateVector::zero(2);
        s.apply(Gate::X(1));
        assert!(close(s.prob(0b10), 1.0));
    }

    #[test]
    fn cx_entangles_bell_pair() {
        let mut s = StateVector::zero(2);
        s.apply(Gate::H(0));
        s.apply(Gate::Cx(0, 1));
        assert!(close(s.prob(0b00), 0.5));
        assert!(close(s.prob(0b11), 0.5));
        assert!(close(s.prob(0b01), 0.0));
        assert!(close(s.prob(0b10), 0.0));
    }

    #[test]
    fn rx_pi_is_x_up_to_phase() {
        let mut s = StateVector::zero(1);
        s.apply(Gate::Rx(0, std::f64::consts::PI));
        assert!(close(s.prob(1), 1.0));
    }

    #[test]
    fn rz_phases_do_not_change_probabilities() {
        let mut s = StateVector::zero(1);
        s.apply(Gate::H(0));
        s.apply(Gate::Rz(0, 1.234));
        assert!(close(s.prob(0), 0.5));
        assert!(close(s.prob(1), 0.5));
    }

    #[test]
    fn rzz_equals_cx_rz_cx() {
        // rzz(θ) = cx; rz(θ) on target; cx — the basis decomposition
        // used by the transpiler. Verify on a random-ish state.
        let theta = 0.731;
        let prep = |s: &mut StateVector| {
            s.apply(Gate::H(0));
            s.apply(Gate::Rx(1, 0.3));
            s.apply(Gate::H(2));
            s.apply(Gate::Cx(2, 1));
        };
        let mut a = StateVector::zero(3);
        prep(&mut a);
        a.apply(Gate::Rzz(0, 1, theta));
        let mut b = StateVector::zero(3);
        prep(&mut b);
        b.apply(Gate::Cx(0, 1));
        b.apply(Gate::Rz(1, theta));
        b.apply(Gate::Cx(0, 1));
        for i in 0..8 {
            let d = a.amp(i) - b.amp(i);
            assert!(d.norm() < 1e-10, "amp {i} differs by {}", d.norm());
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = StateVector::zero(3);
        s.apply(Gate::X(0));
        s.apply(Gate::Swap(0, 2));
        assert!(close(s.prob(0b100), 1.0));
    }

    #[test]
    fn expectation_of_diagonal() {
        // Bell state: E(00) = 0, E(11) = 2 → expectation 1.
        let mut s = StateVector::zero(2);
        s.apply(Gate::H(0));
        s.apply(Gate::Cx(0, 1));
        let e = s.expectation_diagonal(|bits| bits.count_ones() as f64);
        assert!(close(e, 1.0));
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut s = StateVector::zero(2);
        s.apply(Gate::H(0)); // 50/50 on qubit 0 only
        let mut rng = StdRng::seed_from_u64(17);
        let samples = s.sample_many(4000, &mut rng);
        let ones = samples.iter().filter(|&&x| x & 1 == 1).count();
        assert!((1700..2300).contains(&ones), "got {ones} ones");
        assert!(samples.iter().all(|&x| x & 0b10 == 0));
    }

    #[test]
    fn large_register_matches_two_qubit_register() {
        // A 15-qubit register (gates on its top qubits, the longest
        // pair strides) against the same gates on 2 qubits.
        let mut big = StateVector::zero(15);
        big.apply(Gate::H(14));
        big.apply(Gate::Rx(13, 0.7));
        big.apply(Gate::Cx(14, 13));
        big.apply(Gate::Rzz(13, 14, 0.3));
        let mut small = StateVector::zero(2);
        small.apply(Gate::H(1));
        small.apply(Gate::Rx(0, 0.7));
        small.apply(Gate::Cx(1, 0));
        small.apply(Gate::Rzz(0, 1, 0.3));
        // Compare marginals on the top two qubits.
        for pat in 0..4usize {
            let p_big: f64 = (0..1usize << 13).map(|low| big.prob((pat << 13) | low)).sum();
            assert!(close(p_big, small.prob(pat)), "pattern {pat}");
        }
    }

    #[test]
    fn normalization_preserved_by_long_circuit() {
        let mut s = StateVector::zero(6);
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.push(Gate::H(q));
        }
        for i in 0..5 {
            c.push(Gate::Rzz(i, i + 1, 0.4 + i as f64 * 0.1));
            c.push(Gate::Cx(i, i + 1));
            c.push(Gate::Rx(i, 0.2));
        }
        s.run(&c);
        assert!(close(s.total_probability(), 1.0));
        // Every gate is unitary: random circuits keep total probability 1.
        for case in 0..32 {
            let c = crate::gates::random_circuit(&mut StdRng::seed_from_u64(case), 4, 24);
            let mut s = StateVector::zero(4);
            s.run(&c);
            assert!((s.total_probability() - 1.0).abs() < 1e-9, "case {case}:\n{c}");
        }
    }

    /// Bitwise equality of every amplitude, signs of zero included.
    fn assert_same_bits(a: &StateVector, b: &StateVector, what: &str) {
        assert_eq!(a.num_qubits(), b.num_qubits(), "{what}");
        for i in 0..1usize << a.num_qubits() {
            let (x, y) = (a.amp(i), b.amp(i));
            assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (y.re.to_bits(), y.im.to_bits()),
                "{what}: amplitude {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn uniform_is_bit_identical_to_a_hadamard_layer() {
        for n in 1..=16 {
            let mut h = StateVector::zero(n);
            for q in 0..n {
                h.apply(Gate::H(q));
            }
            assert_same_bits(&StateVector::uniform(n), &h, &format!("n = {n}"));
        }
    }

    /// The per-index phase pass the block and table kernels replace:
    /// amplitude `i` times a phase chosen from the bits of `i`.
    fn phase_reference(s: &mut StateVector, g: Gate) {
        let phase = |i: usize| match g {
            Gate::Rz(q, t) => Complex::cis(if i >> q & 1 == 1 { t / 2.0 } else { -t / 2.0 }),
            Gate::Rzz(a, b, t) => {
                let odd = (i >> a & 1) ^ (i >> b & 1) == 1;
                Complex::cis(if odd { t / 2.0 } else { -t / 2.0 })
            }
            _ => unreachable!("not a diagonal phase gate: {g}"),
        };
        for i in 0..1usize << s.num_qubits() {
            s.set_amp(i, s.amp(i) * phase(i));
        }
    }

    #[test]
    fn phase_kernels_are_bit_identical_to_the_per_index_pass() {
        // Registers below, at and above the 16-amplitude table, every
        // qubit and every ordered pair (both operand orders, the
        // adjacent pair (0, 1) included).
        for (case, n) in [1usize, 2, 3, 4, 5, 6, 8, 10].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(case as u64);
            let mut start = StateVector::zero(n);
            for i in 0..1usize << n {
                start.set_amp(
                    i,
                    Complex::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)),
                );
            }
            let mut gates: Vec<Gate> =
                (0..n).map(|q| Gate::Rz(q, rng.random_range(-3.0..3.0))).collect();
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    gates.push(Gate::Rzz(a, b, rng.random_range(-3.0..3.0)));
                }
            }
            for g in gates {
                let (mut fast, mut reference) = (start.clone(), start.clone());
                fast.apply(g);
                phase_reference(&mut reference, g);
                assert_same_bits(&fast, &reference, &format!("n = {n}, {g}"));
            }
        }
    }
}
