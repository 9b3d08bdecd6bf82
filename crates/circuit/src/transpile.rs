//! Transpilation: layout, SWAP routing, and basis decomposition.
//!
//! Circuit-model hardware "cannot directly perform two-qubit operations
//! on arbitrary pairs of qubits. Hence, they must frequently swap the
//! state of adjacent qubits in sequence to move pairwise interactions
//! to physical neighbors" (§VIII-B). The transpiler:
//!
//! 1. chooses an initial layout placing strongly-interacting logical
//!    qubits on adjacent physical qubits,
//! 2. routes each two-qubit gate by inserting SWAPs along a shortest
//!    hardware path, and
//! 3. decomposes everything into the `{rz, rx, x, cx}` basis.
//!
//! The resulting depth is the paper's Fig. 9/10 metric.

use crate::coupling::CouplingMap;
use crate::gates::{Circuit, Gate};
use std::fmt;

/// Transpiler errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranspileError {
    /// The circuit needs more qubits than the device provides.
    TooManyQubits {
        /// Logical qubits required.
        needed: usize,
        /// Physical qubits available.
        available: usize,
    },
}

impl fmt::Display for TranspileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranspileError::TooManyQubits { needed, available } => {
                write!(f, "circuit needs {needed} qubits, device has {available}")
            }
        }
    }
}

impl std::error::Error for TranspileError {}

/// A transpiled circuit plus bookkeeping.
#[derive(Clone, Debug)]
pub struct Transpiled {
    /// The physical circuit in the `{rz, rx, x, cx}` basis.
    pub circuit: Circuit,
    /// Initial layout: `layout[logical] = physical`.
    pub initial_layout: Vec<usize>,
    /// Final layout after routing (measurement decode).
    pub final_layout: Vec<usize>,
    /// SWAPs inserted by the router.
    pub num_swaps: usize,
}

impl Transpiled {
    /// Decode a physical measurement (bit per physical qubit) into
    /// logical bits using the final layout.
    pub fn decode(&self, physical_bits: u64) -> u64 {
        let mut out = 0u64;
        for (logical, &phys) in self.final_layout.iter().enumerate() {
            if physical_bits >> phys & 1 == 1 {
                out |= 1 << logical;
            }
        }
        out
    }
}

/// Transpile `logical` onto `map`.
pub fn transpile(logical: &Circuit, map: &CouplingMap) -> Result<Transpiled, TranspileError> {
    let n = logical.num_qubits();
    if n > map.num_qubits() {
        return Err(TranspileError::TooManyQubits { needed: n, available: map.num_qubits() });
    }
    let dist = map.distances();
    let initial_layout = choose_layout(logical, map, &dist);
    // log2phys / phys2log under routing.
    let mut l2p = initial_layout.clone();
    let mut p2l = vec![usize::MAX; map.num_qubits()];
    for (l, &p) in l2p.iter().enumerate() {
        p2l[p] = l;
    }
    let mut out = Circuit::new(map.num_qubits());
    let mut num_swaps = 0usize;
    let emit_basis = |out: &mut Circuit, g: Gate| match g {
        // Basis decomposition at emission time.
        Gate::H(q) => {
            let half_pi = std::f64::consts::FRAC_PI_2;
            out.push(Gate::Rz(q, half_pi));
            out.push(Gate::Rx(q, half_pi));
            out.push(Gate::Rz(q, half_pi));
        }
        Gate::Rzz(a, b, t) => {
            out.push(Gate::Cx(a, b));
            out.push(Gate::Rz(b, t));
            out.push(Gate::Cx(a, b));
        }
        Gate::Xy(a, b, t) => {
            // exp(−iθ/2·(XX+YY)/2) = RXX(θ/2)·RYY(θ/2) (commuting
            // halves), each via basis rotation around RZZ.
            let half_pi = std::f64::consts::FRAC_PI_2;
            // RXX(θ/2): H on both, RZZ, H on both — H itself is
            // emitted in the basis below, so expand inline.
            for q in [a, b] {
                out.push(Gate::Rz(q, half_pi));
                out.push(Gate::Rx(q, half_pi));
                out.push(Gate::Rz(q, half_pi));
            }
            out.push(Gate::Cx(a, b));
            out.push(Gate::Rz(b, t / 2.0));
            out.push(Gate::Cx(a, b));
            for q in [a, b] {
                out.push(Gate::Rz(q, half_pi));
                out.push(Gate::Rx(q, half_pi));
                out.push(Gate::Rz(q, half_pi));
            }
            // RYY(θ/2): RX(π/2) basis change.
            for q in [a, b] {
                out.push(Gate::Rx(q, half_pi));
            }
            out.push(Gate::Cx(a, b));
            out.push(Gate::Rz(b, t / 2.0));
            out.push(Gate::Cx(a, b));
            for q in [a, b] {
                out.push(Gate::Rx(q, -half_pi));
            }
        }
        Gate::Swap(a, b) => {
            out.push(Gate::Cx(a, b));
            out.push(Gate::Cx(b, a));
            out.push(Gate::Cx(a, b));
        }
        other => out.push(other),
    };
    for &g in logical.gates() {
        match g.qubits() {
            (a, None) => emit_basis(&mut out, g.remap(|_| l2p[a])),
            (a, Some(b)) => {
                // Route: walk phys(a) toward phys(b) by SWAPs until
                // adjacent.
                while !map.connected(l2p[a], l2p[b]) {
                    let pa = l2p[a];
                    let pb = l2p[b];
                    // First hop of a shortest path pa → pb.
                    let next = *map
                        .neighbors(pa)
                        .iter()
                        .min_by_key(|&&x| dist[x][pb])
                        .expect("connected device");
                    emit_basis(&mut out, Gate::Swap(pa, next));
                    num_swaps += 1;
                    // Update layouts: whatever logical qubit sat at
                    // `next` moves to `pa`.
                    let other = p2l[next];
                    p2l[pa] = other;
                    p2l[next] = a;
                    l2p[a] = next;
                    if other != usize::MAX {
                        l2p[other] = pa;
                    }
                }
                emit_basis(&mut out, g.remap(|q| if q == a { l2p[a] } else { l2p[b] }));
            }
        }
    }
    let final_layout = l2p;
    Ok(Transpiled { circuit: out, initial_layout, final_layout, num_swaps })
}

/// Greedy interaction-aware layout: place the busiest logical qubit on
/// the best-connected physical qubit, then place each subsequent
/// logical qubit as close as possible to its placed interaction
/// partners.
fn choose_layout(logical: &Circuit, map: &CouplingMap, dist: &[Vec<u32>]) -> Vec<usize> {
    let n = logical.num_qubits();
    // Interaction weights between logical qubits.
    let mut weight = vec![vec![0u32; n]; n];
    for g in logical.gates() {
        if let (a, Some(b)) = g.qubits() {
            weight[a][b] += 1;
            weight[b][a] += 1;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&q| std::cmp::Reverse(weight[q].iter().sum::<u32>()));
    let mut layout = vec![usize::MAX; n];
    let mut used = vec![false; map.num_qubits()];
    for &l in &order {
        let placed: Vec<(usize, u32)> = (0..n)
            .filter(|&m| layout[m] != usize::MAX && weight[l][m] > 0)
            .map(|m| (layout[m], weight[l][m]))
            .collect();
        let phys = if placed.is_empty() {
            // Most-connected free qubit.
            (0..map.num_qubits())
                .filter(|&p| !used[p])
                .max_by_key(|&p| map.neighbors(p).len())
                .expect("enough qubits")
        } else {
            (0..map.num_qubits())
                .filter(|&p| !used[p])
                .min_by_key(|&p| {
                    placed.iter().map(|&(pp, w)| dist[p][pp] as u64 * w as u64).sum::<u64>()
                })
                .expect("enough qubits")
        };
        layout[l] = phys;
        used[phys] = true;
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_connectivity_inserts_no_swaps() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push(Gate::H(q));
        }
        for a in 0..4 {
            for b in a + 1..4 {
                c.push(Gate::Rzz(a, b, 0.3));
            }
        }
        let t = transpile(&c, &CouplingMap::full(4)).unwrap();
        assert_eq!(t.num_swaps, 0);
    }

    #[test]
    fn line_routing_inserts_swaps() {
        // rzz(0, 3) on a line of 4 needs movement.
        let mut c = Circuit::new(4);
        c.push(Gate::Rzz(0, 3, 0.5));
        c.push(Gate::Rzz(0, 1, 0.5));
        c.push(Gate::Rzz(1, 2, 0.5));
        let t = transpile(&c, &CouplingMap::line(4)).unwrap();
        // Layout may reorder, but the full interaction set of this
        // circuit is a star plus path, not embeddable distance-free on
        // a line without at least one swap... verify routing executed
        // and all cx gates are between connected qubits.
        let map = CouplingMap::line(4);
        for g in t.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(map.connected(a, b), "{g} not executable");
            }
        }
    }

    #[test]
    fn too_many_qubits_rejected() {
        let c = Circuit::new(70);
        match transpile(&c, &CouplingMap::ibmq_brooklyn()) {
            Err(TranspileError::TooManyQubits { needed: 70, available: 65 }) => {}
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn basis_contains_only_allowed_gates() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Swap(0, 2));
        c.push(Gate::Rzz(0, 1, 0.7));
        let t = transpile(&c, &CouplingMap::line(3)).unwrap();
        for g in t.circuit.gates() {
            assert!(
                matches!(g, Gate::Rz(..) | Gate::Rx(..) | Gate::X(..) | Gate::Cx(..)),
                "non-basis gate {g} in output"
            );
        }
    }

    /// End-to-end semantic check: the transpiled circuit computes the
    /// same distribution as the logical circuit (after decode), for a
    /// QAOA-shaped circuit and for random circuits over the full gate
    /// set.
    #[test]
    fn transpiled_circuit_preserves_semantics() {
        let mut logical = Circuit::new(4);
        for q in 0..4 {
            logical.push(Gate::H(q));
        }
        logical.push(Gate::Rzz(0, 3, 0.9));
        logical.push(Gate::Rzz(1, 2, 0.4));
        logical.push(Gate::Rzz(0, 2, -0.6));
        for q in 0..4 {
            logical.push(Gate::Rx(q, 0.8));
        }
        let random = (0..32)
            .map(|case| crate::gates::random_circuit(&mut StdRng::seed_from_u64(case), 4, 16));
        let map = CouplingMap::line(4);
        for logical in std::iter::once(logical).chain(random) {
            let t = transpile(&logical, &map).unwrap();
            let mut ideal = StateVector::zero(4);
            ideal.run(&logical);
            let mut routed = StateVector::zero(4);
            routed.run(&t.circuit);
            // Compare probability distributions after decode.
            for phys in 0..16u64 {
                let log = t.decode(phys);
                let p_routed = routed.prob(phys as usize);
                let p_ideal = ideal.prob(log as usize);
                assert!(
                    (p_routed - p_ideal).abs() < 1e-9,
                    "phys {phys:04b} → log {log:04b}: {p_routed} vs {p_ideal} for\n{logical}"
                );
            }
        }
    }

    #[test]
    fn depth_grows_on_sparser_devices() {
        // The same QAOA-ish circuit is deeper on a line than on a full
        // graph (§VIII-B: swap overhead).
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.push(Gate::H(q));
        }
        for a in 0..6 {
            for b in a + 1..6 {
                c.push(Gate::Rzz(a, b, 0.2));
            }
        }
        let on_full = transpile(&c, &CouplingMap::full(6)).unwrap();
        let on_line = transpile(&c, &CouplingMap::line(6)).unwrap();
        assert!(on_line.circuit.depth() > on_full.circuit.depth());
        assert!(on_line.num_swaps > 0);
    }

    #[test]
    fn decode_tracks_final_layout() {
        let mut c = Circuit::new(2);
        c.push(Gate::X(0));
        c.push(Gate::Rzz(0, 1, 0.1));
        let t = transpile(&c, &CouplingMap::line(3)).unwrap();
        // Wherever logical 0 ended up, decode must bring the X back to
        // logical bit 0.
        let mut s = StateVector::zero(3);
        s.run(&t.circuit);
        let mut best = 0;
        let mut best_p = 0.0;
        for i in 0..8 {
            if s.prob(i) > best_p {
                best_p = s.prob(i);
                best = i;
            }
        }
        assert_eq!(t.decode(best as u64) & 0b11, 0b01);
    }
}
