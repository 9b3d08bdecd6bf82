//! Pins the compiler's output bit for bit: the exact table each shape
//! compiles to, the path that produced it (closed form or SMT search),
//! and the `f64` program QUBO of two assembled programs. A refactor of
//! the compiler must leave [`PINNED`] unchanged; a deliberate change of
//! the tables must update it and say why.

use nck_compile::{compile, CompiledProgram, CompilerOptions};
use nck_core::Program;
use nck_qubo::Qubo;

/// FNV-1a digest of every shape table and both program QUBOs.
const PINNED: u64 = 0xd842_9835_283e_066b;

/// A constraint shape written as literals: hard or soft, ascending
/// multiplicities, selection set.
type Shape = (bool, &'static [u32], &'static [u32]);

/// Every shape the three perfbench workloads compile, the
/// repeated-variable 3-SAT clause shapes, the shapes of the
/// coefficient-search unit tests, and two soft shapes that take the SMT
/// search under the flat (`ExactlyOne`) gap.
const SHAPES: &[Shape] = &[
    // The perfbench workloads' hard shapes.
    (true, &[1], &[1]),
    (true, &[1, 1], &[1]),
    (true, &[1, 1], &[0, 1]),
    (true, &[1, 1], &[1, 2]),
    (true, &[1, 1, 1], &[1]),
    (true, &[1, 1, 1, 1], &[1]),
    (true, &[1, 1, 1, 1, 1], &[1]),
    (true, &[1, 1, 1], &[1, 2, 3]),
    // Repeated-variable 3-SAT clauses (`KSat::program_repeated`).
    (true, &[1, 1, 1], &[0, 1, 2]),
    (true, &[1, 1, 3], &[0, 1, 2, 4, 5]),
    (true, &[1, 2, 2], &[0, 1, 2, 3, 5]),
    // The perfbench workloads' soft shapes.
    (false, &[1], &[0]),
    (false, &[1, 1], &[1]),
    // Coefficient-search unit tests.
    (true, &[1, 1, 1], &[0, 2]),
    (true, &[1, 1, 1], &[1, 3]),
    (true, &[1], &[0]),
    (true, &[1, 1], &[0]),
    (true, &[1, 1], &[2]),
    (true, &[1, 1, 1], &[0]),
    (true, &[1, 1, 1], &[2]),
    (true, &[1, 1, 1], &[3]),
    (true, &[1, 1, 1, 1], &[0]),
    (true, &[1, 1, 1, 1], &[2]),
    (true, &[1, 1, 1, 1], &[3]),
    (true, &[1, 1, 1, 1], &[4]),
    (true, &[1, 1], &[0, 1, 2]),
    (true, &[2], &[0, 2]),
    (true, &[2], &[2]),
    (true, &[1, 2], &[2]),
    (true, &[1, 1, 2], &[0, 1, 2, 4]),
    // Soft shapes through the SMT search.
    (false, &[1, 1], &[1, 2]),
    (false, &[1, 1, 1], &[0, 2]),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// `shape` as a one-constraint program: variable `i` appears
/// `multiplicities[i]` times in the collection.
fn one_constraint_program(&(hard, multiplicities, selection): &Shape) -> Program {
    let mut p = Program::new();
    let vs = p.new_vars("v", multiplicities.len()).unwrap();
    let collection: Vec<_> = vs
        .iter()
        .zip(multiplicities)
        .flat_map(|(&v, &m)| std::iter::repeat_n(v, m as usize))
        .collect();
    let selection = selection.iter().copied();
    if hard {
        p.nck(collection, selection).unwrap();
    } else {
        p.nck_soft(collection, selection).unwrap();
    }
    p
}

/// Path, sizes and exact coefficients of the one table in `compiled`.
fn hash_table(h: &mut Fnv, compiled: &CompiledProgram) {
    h.u64(compiled.stats.closed_form_hits);
    h.u64(compiled.stats.smt_searches);
    let table = &compiled.placements[0].compiled;
    h.u64(table.num_real as u64);
    h.u64(table.num_ancillas as u64);
    let q = &table.qubo;
    h.str(&q.offset().to_string());
    for i in 0..q.num_vars() {
        h.str(&q.linear(i).to_string());
    }
    for i in 0..q.num_vars() {
        for j in i + 1..q.num_vars() {
            h.str(&q.quadratic(i, j).to_string());
        }
    }
}

/// The `f64` bits of every coefficient of a program QUBO.
fn hash_qubo(h: &mut Fnv, q: &Qubo) {
    h.u64(q.num_vars() as u64);
    h.u64(q.offset().to_bits());
    for i in 0..q.num_vars() {
        h.u64(q.linear(i).to_bits());
    }
    for i in 0..q.num_vars() {
        for j in i + 1..q.num_vars() {
            h.u64(q.quadratic(i, j).to_bits());
        }
    }
}

/// The Fig. 2 vertex cover (§IV's five-vertex graph), with one soft
/// constraint weighted 3 and listed first, so hard and soft parts
/// interleave in constraint order.
fn weighted_vertex_cover() -> Program {
    let mut p = Program::new();
    let vs = p.new_vars("v", 5).unwrap();
    p.nck_soft_weighted(vec![vs[2]], [0], 3).unwrap();
    for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
        p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
    }
    for &v in &[vs[0], vs[1], vs[3], vs[4]] {
        p.nck_soft(vec![v], [0]).unwrap();
    }
    p
}

/// Dual-rail 3-SAT `(x0 ∨ ¬x1 ∨ x2) ∧ (¬x0 ∨ x1 ∨ ¬x2)`: one rail
/// constraint per variable, then one 1-ancilla clause constraint each.
fn dual_rail_clauses() -> Program {
    let mut p = Program::new();
    let xs = p.new_vars("x", 3).unwrap();
    let nxs = p.new_vars("nx", 3).unwrap();
    for v in 0..3 {
        p.nck(vec![xs[v], nxs[v]], [1]).unwrap();
    }
    p.nck(vec![xs[0], nxs[1], xs[2]], 1..=3).unwrap();
    p.nck(vec![nxs[0], xs[1], nxs[2]], 1..=3).unwrap();
    p
}

#[test]
fn compiled_tables_match_the_pinned_digest() {
    let opts = CompilerOptions::default();
    let mut h = Fnv::new();
    for shape in SHAPES {
        let program = compile(&one_constraint_program(shape), &opts)
            .unwrap_or_else(|e| panic!("{shape:?}: {e}"));
        assert_eq!(program.placements.len(), 1, "{shape:?}");
        hash_table(&mut h, &program);
    }
    for program in [weighted_vertex_cover(), dual_rail_clauses()] {
        hash_qubo(&mut h, &compile(&program, &opts).unwrap().qubo);
    }
    assert_eq!(h.0, PINNED, "compiled tables changed: digest {:#018x}", h.0);
}
