//! QUBOs with exact rational coefficients.
//!
//! The coefficient search works entirely in exact arithmetic so that
//! "every satisfying assignment attains the minimum, every violating
//! assignment sits at least one gap above it" is a *theorem* about the
//! produced table, not a floating-point approximation. Lowering to the
//! `f64` [`nck_qubo::Qubo`] happens only at the very end.

use nck_qubo::Qubo;
use nck_smt::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// A QUBO with [`Rational`] coefficients over a small local variable
/// space (constraint variables followed by ancillas).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RationalQubo {
    num_vars: usize,
    linear: Vec<Rational>,
    quadratic: BTreeMap<(usize, usize), Rational>,
    offset: Rational,
}

impl RationalQubo {
    /// The zero QUBO over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        RationalQubo {
            num_vars,
            linear: vec![Rational::zero(); num_vars],
            quadratic: BTreeMap::new(),
            offset: Rational::zero(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Add `c·xᵢ`.
    pub fn add_linear(&mut self, i: usize, c: Rational) {
        assert!(i < self.num_vars);
        self.linear[i] += &c;
    }

    /// Add `c·xᵢxⱼ`; `i == j` folds into linear (`x² = x`).
    pub fn add_quadratic(&mut self, i: usize, j: usize, c: Rational) {
        assert!(i < self.num_vars && j < self.num_vars);
        if i == j {
            self.linear[i] += &c;
            return;
        }
        let key = (i.min(j), i.max(j));
        let e = self.quadratic.entry(key).or_insert_with(Rational::zero);
        *e += &c;
        if e.is_zero() {
            self.quadratic.remove(&key);
        }
    }

    /// Add a constant.
    pub fn add_offset(&mut self, c: Rational) {
        self.offset += &c;
    }

    /// Linear coefficient of `xᵢ`.
    pub fn linear(&self, i: usize) -> &Rational {
        &self.linear[i]
    }

    /// Quadratic coefficient of `xᵢxⱼ` (zero if absent).
    pub fn quadratic(&self, i: usize, j: usize) -> Rational {
        self.quadratic.get(&(i.min(j), i.max(j))).cloned().unwrap_or_else(Rational::zero)
    }

    /// The constant offset.
    pub fn offset(&self) -> &Rational {
        &self.offset
    }

    /// Number of nonzero terms (linear + quadratic).
    pub fn num_terms(&self) -> usize {
        self.linear.iter().filter(|c| !c.is_zero()).count() + self.quadratic.len()
    }

    /// Exact energy of an assignment packed into the low bits of `bits`.
    pub fn energy_bits(&self, bits: u64) -> Rational {
        let mut e = self.offset.clone();
        for (i, c) in self.linear.iter().enumerate() {
            if bits >> i & 1 == 1 {
                e += c;
            }
        }
        for (&(i, j), c) in &self.quadratic {
            if bits >> i & 1 == 1 && bits >> j & 1 == 1 {
                e += c;
            }
        }
        e
    }

    /// Lower to the `f64` QUBO used by the backends. Lossy only if a
    /// coefficient is not exactly representable — typical compiled
    /// coefficients are small dyadic rationals, which convert exactly.
    pub fn to_f64(&self) -> Qubo {
        let mut q = Qubo::new(self.num_vars);
        for (i, c) in self.linear.iter().enumerate() {
            if !c.is_zero() {
                q.add_linear(i, c.to_f64());
            }
        }
        for (&(i, j), c) in &self.quadratic {
            q.add_quadratic(i, j, c.to_f64());
        }
        q.add_offset(self.offset.to_f64());
        q
    }

    /// Minimum energy over the given ancilla bits for fixed variable
    /// bits: the local variable order is `[vars..., ancillas...]`, so
    /// `var_bits` occupies the low `num_real` bits and ancillas the next
    /// `num_vars − num_real` bits.
    pub fn min_over_ancillas(&self, var_bits: u64, num_real: usize) -> Rational {
        let num_anc = self.num_vars - num_real;
        if num_anc == 0 {
            // No ancilla to place: `anc << num_real` would overflow at
            // 64 real variables.
            return self.energy_bits(var_bits);
        }
        let mut best: Option<Rational> = None;
        for anc in 0..1u64 << num_anc {
            let e = self.energy_bits(var_bits | anc << num_real);
            best = Some(match best {
                None => e,
                Some(b) => {
                    if e < b {
                        e
                    } else {
                        b
                    }
                }
            });
        }
        best.expect("at least one ancilla assignment")
    }
}

impl fmt::Display for RationalQubo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    #[test]
    fn exact_energy() {
        let mut q = RationalQubo::new(2);
        q.add_linear(0, r(-1, 1));
        q.add_linear(1, r(-1, 1));
        q.add_quadratic(0, 1, r(1, 1));
        q.add_offset(r(1, 1));
        // f = ab - a - b + 1 (shifted vertex-cover edge QUBO)
        assert_eq!(q.energy_bits(0b00), r(1, 1));
        assert_eq!(q.energy_bits(0b01), r(0, 1));
        assert_eq!(q.energy_bits(0b10), r(0, 1));
        assert_eq!(q.energy_bits(0b11), r(0, 1));
    }

    #[test]
    fn square_fold() {
        let mut q = RationalQubo::new(1);
        q.add_quadratic(0, 0, r(3, 2));
        assert_eq!(*q.linear(0), r(3, 2));
        assert_eq!(q.num_terms(), 1);
    }

    #[test]
    fn quadratic_cancellation() {
        let mut q = RationalQubo::new(2);
        q.add_quadratic(0, 1, r(1, 3));
        q.add_quadratic(1, 0, r(-1, 3));
        assert_eq!(q.num_terms(), 0);
    }

    #[test]
    fn lowering_matches() {
        let mut q = RationalQubo::new(3);
        q.add_linear(0, r(1, 2));
        q.add_quadratic(0, 2, r(-5, 4));
        q.add_offset(r(3, 1));
        let f = q.to_f64();
        for bits in 0..8u64 {
            assert_eq!(f.energy_bits(bits), q.energy_bits(bits).to_f64());
        }
    }

    #[test]
    fn min_over_ancillas() {
        // 2 real vars + 1 ancilla; E = x0 + 2·z − x0·z
        let mut q = RationalQubo::new(3);
        q.add_linear(0, r(1, 1));
        q.add_linear(2, r(2, 1));
        q.add_quadratic(0, 2, r(-1, 1));
        // x0 = 1: z=0 gives 1, z=1 gives 2  => min 1
        assert_eq!(q.min_over_ancillas(0b01, 2), r(1, 1));
        // x0 = 0: z=0 gives 0, z=1 gives 2  => min 0
        assert_eq!(q.min_over_ancillas(0b00, 2), r(0, 1));
    }
}
