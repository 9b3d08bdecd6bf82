//! Dense state-vector simulation.
//!
//! Exact simulation of the gate set in [`crate::gates`]. Practical up to
//! ~24 qubits (16M amplitudes); larger QAOA instances use the analytic
//! p=1 evaluator instead ([`crate::analytic`]).

use crate::complex::Complex;
use crate::gates::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::Rng;

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
                self.phase(|i| if i >> q & 1 == 1 { pos } else { neg });
            }
            Gate::Rzz(a, b, t) => {
                // diag phase e^{−iθ/2·(±1)} by the parity of bits a, b.
                let even = Complex::cis(-t / 2.0);
                let odd = Complex::cis(t / 2.0);
                self.phase(|i| if (i >> a & 1) ^ (i >> b & 1) == 1 { odd } else { even });
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

    fn phase(&mut self, f: impl Fn(usize) -> Complex) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = *a * f(i);
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
}
