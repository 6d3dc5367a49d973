//! Exact (noise-free) state-vector simulation.
//!
//! Basis convention: for an `n`-qubit register, computational basis state
//! `|b⟩` is indexed by the integer `b` whose **bit `q` is the value of qubit
//! `q`** (qubit 0 = least significant bit). Two-qubit gates use the local
//! index `control*2 + target`, matching [`crate::gate::GateKind::matrix`].
//!
//! Two ways to apply a gate:
//!
//! - [`PreboundGate`] + [`StateVector::apply_prebound`], the production
//!   path: a gate is bound once into stack-held entries and applied by an
//!   allocation-free kernel chosen by its kind — general 2×2, diagonal
//!   2×2, controlled 2×2 (touching only the control = 1 half) or general
//!   4×4.
//! - [`BoundGate`] + [`StateVector::apply`] on a [`CMatrix`]
//!   ([`StateVector::apply_1q`] / [`StateVector::apply_2q`]), the
//!   reference the prebound kernels are tested against.
//!
//! The prebound kernels evaluate every amplitude with the reference's
//! expression order and skip only exact-zero products and identity rows.
//! Adding an exact zero leaves a nonzero sum unchanged, so every amplitude
//! equals the reference's under `==`; at most the sign of an exact-zero
//! amplitude differs, which [`Complex64::norm_sqr`] erases, so
//! probabilities and `⟨Z⟩` agree bit for bit.

use crate::gate::{BoundGate, GateKind};
use crate::math::{CMatrix, Complex64, M2, M4};

/// A gate bound once into stack-held entries, with the kernel fixed by its
/// kind (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use quasim::gate::{BoundGate, GateKind};
/// use quasim::statevector::{run_circuit, PreboundGate, StateVector};
///
/// let mut sv = StateVector::zero_state(2);
/// sv.apply_prebound(&PreboundGate::new(GateKind::Ry, &[0], 0.7));
/// sv.apply_prebound(&PreboundGate::new(GateKind::Cry, &[0, 1], 1.1));
/// let reference = run_circuit(
///     2,
///     &[
///         BoundGate::one(GateKind::Ry, 0, 0.7),
///         BoundGate::two(GateKind::Cry, 0, 1, 1.1),
///     ],
/// );
/// assert_eq!(sv.amplitudes(), reference.amplitudes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreboundGate {
    /// A general 2×2 unitary on qubit `q`.
    General1q {
        /// Target qubit.
        q: usize,
        /// Row-major entries.
        u: M2,
    },
    /// A diagonal 2×2 unitary `diag(d[0], d[1])` on qubit `q` (`Z`, `S`,
    /// `T`, `Rz`, `Phase`).
    Diagonal1q {
        /// Target qubit.
        q: usize,
        /// Diagonal entries.
        d: [Complex64; 2],
    },
    /// A controlled rotation (`Crx`, `Cry`, `Crz`): the 2×2 `u` acts on
    /// `target` where `control` is `1`.
    Controlled {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Row-major entries of the target rotation.
        u: M2,
    },
    /// A general 4×4 unitary on `(a, b)`, `a` the most significant local
    /// bit. Every such kind (`Cx`, `Cz`, `Swap`) is fixed, so the entries
    /// are the process-wide cache of [`GateKind::fixed_entries_2q`].
    General2q {
        /// Most significant local qubit (the control of `Cx`/`Cz`).
        a: usize,
        /// Least significant local qubit.
        b: usize,
        /// Row-major entries.
        u: &'static M4,
    },
}

impl PreboundGate {
    /// Binds `kind` on `qubits` (control first for controlled kinds) at
    /// angle `theta` (ignored by fixed kinds), with the same entries as
    /// [`GateKind::matrix`].
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the kind's arity or the
    /// two operands of a two-qubit kind are equal.
    pub fn new(kind: GateKind, qubits: &[usize], theta: f64) -> Self {
        assert_eq!(qubits.len(), kind.arity(), "operand count mismatch");
        if let [a, b] = *qubits {
            assert_ne!(a, b, "two-qubit gate requires distinct qubits");
            return match kind.controlled_base() {
                Some(base) => PreboundGate::Controlled {
                    control: a,
                    target: b,
                    u: base
                        .entries_1q(theta)
                        .expect("rotation bases are one-qubit"),
                },
                None => PreboundGate::General2q {
                    a,
                    b,
                    u: kind
                        .fixed_entries_2q()
                        .expect("every non-controlled two-qubit kind is fixed"),
                },
            };
        }
        let q = qubits[0];
        let u = kind.entries_1q(theta).expect("one-qubit kind");
        match kind {
            GateKind::Z | GateKind::S | GateKind::T | GateKind::Rz | GateKind::Phase => {
                PreboundGate::Diagonal1q { q, d: [u[0], u[3]] }
            }
            _ => PreboundGate::General1q { q, u },
        }
    }

    /// The largest qubit index the gate touches.
    fn max_qubit(&self) -> usize {
        match *self {
            PreboundGate::General1q { q, .. } | PreboundGate::Diagonal1q { q, .. } => q,
            PreboundGate::Controlled {
                control: a,
                target: b,
                ..
            }
            | PreboundGate::General2q { a, b, .. } => a.max(b),
        }
    }
}

/// Index of the `k`-th basis state whose bits `lo < hi` are both clear.
#[inline]
fn insert_two_zero_bits(k: usize, lo: usize, hi: usize) -> usize {
    let insert = |k: usize, bit: usize| ((k >> bit) << (bit + 1)) | (k & ((1 << bit) - 1));
    insert(insert(k, lo), hi)
}

/// A pure quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use quasim::statevector::StateVector;
/// use quasim::gate::{BoundGate, GateKind};
///
/// let mut sv = StateVector::zero_state(2);
/// sv.apply(&BoundGate::one(GateKind::H, 0, 0.0));
/// sv.apply(&BoundGate::two(GateKind::Cx, 0, 1, 0.0));
/// // Bell state: P(qubit 1 = 1) = 1/2.
/// assert!((sv.prob_one(1) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        StateVector {
            n_qubits: self.n_qubits,
            amps: self.amps.clone(),
        }
    }

    /// Copies `source` into the existing amplitude buffer (no allocation
    /// when the sizes match).
    fn clone_from(&mut self, source: &Self) {
        self.n_qubits = source.n_qubits;
        self.amps.clone_from(&source.amps);
    }
}

impl StateVector {
    /// Creates `|0…0⟩` over `n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > 24` (sizes beyond any use in
    /// this workspace).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!((1..=24).contains(&n_qubits), "unsupported qubit count");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Creates a state from explicit amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two ≥ 2 or if the vector is not
    /// normalised within `1e-9`.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let len = amps.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "length must be a power of two"
        );
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-9,
            "state must be normalised (got {norm})"
        );
        StateVector {
            n_qubits: len.trailing_zeros() as usize,
            amps,
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Raw amplitudes (length `2^n`).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Applies a bound gate in place.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn apply(&mut self, gate: &BoundGate) {
        match gate.kind().arity() {
            1 => self.apply_1q(&gate.matrix(), gate.qubits()[0]),
            _ => self.apply_2q(&gate.matrix(), gate.qubits()[0], gate.qubits()[1]),
        }
    }

    /// Resets the register to `|0…0⟩` in place.
    pub fn reset_zero(&mut self) {
        self.amps.fill(Complex64::ZERO);
        self.amps[0] = Complex64::ONE;
    }

    /// Applies a prebound gate in place with its kind's allocation-free
    /// kernel; amplitudes equal [`StateVector::apply`]'s under `==` (see
    /// the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn apply_prebound(&mut self, gate: &PreboundGate) {
        assert!(gate.max_qubit() < self.n_qubits, "qubit out of range");
        let amps = self.amps.as_mut_slice();
        match *gate {
            PreboundGate::General1q {
                q,
                u: [u00, u01, u10, u11],
            } => {
                let half = 1usize << q;
                for block in amps.chunks_exact_mut(2 * half) {
                    let (lo, hi) = block.split_at_mut(half);
                    for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                        let (x0, x1) = (*a0, *a1);
                        *a0 = u00 * x0 + u01 * x1;
                        *a1 = u10 * x0 + u11 * x1;
                    }
                }
            }
            PreboundGate::Diagonal1q { q, d: [d0, d1] } => {
                let half = 1usize << q;
                for block in amps.chunks_exact_mut(2 * half) {
                    let (lo, hi) = block.split_at_mut(half);
                    for a in lo {
                        *a = d0 * *a;
                    }
                    for a in hi {
                        *a = d1 * *a;
                    }
                }
            }
            PreboundGate::Controlled {
                control,
                target,
                u: [u00, u01, u10, u11],
            } => {
                let (mc, mt) = (1usize << control, 1usize << target);
                let (lo, hi) = (control.min(target), control.max(target));
                for k in 0..amps.len() >> 2 {
                    let i = insert_two_zero_bits(k, lo, hi) | mc;
                    let j = i | mt;
                    let (x0, x1) = (amps[i], amps[j]);
                    amps[i] = u00 * x0 + u01 * x1;
                    amps[j] = u10 * x0 + u11 * x1;
                }
            }
            PreboundGate::General2q { a, b, u } => {
                let (ma, mb) = (1usize << a, 1usize << b);
                let (lo, hi) = (a.min(b), a.max(b));
                for k in 0..amps.len() >> 2 {
                    let i = insert_two_zero_bits(k, lo, hi);
                    let idx = [i, i | mb, i | ma, i | ma | mb];
                    let old = idx.map(|x| amps[x]);
                    for (r, &out) in idx.iter().enumerate() {
                        let mut acc = Complex64::ZERO;
                        for (c, &x) in old.iter().enumerate() {
                            acc += u[r * 4 + c] * x;
                        }
                        amps[out] = acc;
                    }
                }
            }
        }
    }

    /// Applies a 2×2 unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `u` is not 2×2.
    pub fn apply_1q(&mut self, u: &CMatrix, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert_eq!(u.dim(), 2, "expected a 2x2 matrix");
        let mask = 1usize << q;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        let dim = self.amps.len();
        let mut i = 0usize;
        while i < dim {
            if i & mask == 0 {
                let j = i | mask;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = u00 * a0 + u01 * a1;
                self.amps[j] = u10 * a0 + u11 * a1;
            }
            i += 1;
        }
    }

    /// Applies a 4×4 unitary to qubits `(a, b)` where `a` maps to the most
    /// significant local bit (control position for controlled gates).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, equal, or `u` is not 4×4.
    pub fn apply_2q(&mut self, u: &CMatrix, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "qubits must be distinct");
        assert_eq!(u.dim(), 4, "expected a 4x4 matrix");
        let ma = 1usize << a;
        let mb = 1usize << b;
        let dim = self.amps.len();
        for i in 0..dim {
            if i & ma == 0 && i & mb == 0 {
                let idx = [i, i | mb, i | ma, i | ma | mb];
                let old = [
                    self.amps[idx[0]],
                    self.amps[idx[1]],
                    self.amps[idx[2]],
                    self.amps[idx[3]],
                ];
                for r in 0..4 {
                    let mut acc = Complex64::ZERO;
                    for c in 0..4 {
                        acc += u[(r, c)] * old[c];
                    }
                    self.amps[idx[r]] = acc;
                }
            }
        }
    }

    /// Applies a whole sequence of gates.
    pub fn run<'a, I: IntoIterator<Item = &'a BoundGate>>(&mut self, gates: I) {
        for g in gates {
            self.apply(g);
        }
    }

    /// Probability of measuring qubit `q` as `1`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Expectation value `⟨Z_q⟩ = P(0) − P(1)`.
    pub fn expect_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.prob_one(q)
    }

    /// Full computational-basis probability distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Squared norm (should always be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit counts must match");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(&a, &b)| a.conj() * b)
            .fold(Complex64::ZERO, |acc, z| acc + z)
    }

    /// Fidelity `|⟨self|other⟩|²` with another pure state.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }
}

/// Runs `gates` on `|0…0⟩` and returns the final state.
///
/// # Examples
///
/// ```
/// use quasim::statevector::run_circuit;
/// use quasim::gate::{BoundGate, GateKind};
///
/// let sv = run_circuit(2, &[BoundGate::one(GateKind::X, 0, 0.0)]);
/// assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);
/// ```
pub fn run_circuit(n_qubits: usize, gates: &[BoundGate]) -> StateVector {
    let mut sv = StateVector::zero_state(n_qubits);
    sv.run(gates);
    sv
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn g1(kind: GateKind, q: usize, t: f64) -> BoundGate {
        BoundGate::one(kind, q, t)
    }

    #[test]
    fn zero_state_probabilities() {
        let sv = StateVector::zero_state(3);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
        for q in 0..3 {
            assert!(sv.prob_one(q).abs() < 1e-12);
            assert!((sv.expect_z(q) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn x_flips_qubit() {
        let sv = run_circuit(2, &[g1(GateKind::X, 1, 0.0)]);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
        assert!(sv.prob_one(0).abs() < 1e-12);
    }

    #[test]
    fn ry_rotates_bloch_vector() {
        let theta = 1.1;
        let sv = run_circuit(1, &[g1(GateKind::Ry, 0, theta)]);
        assert!((sv.expect_z(0) - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let sv = run_circuit(
            2,
            &[
                g1(GateKind::H, 0, 0.0),
                BoundGate::two(GateKind::Cx, 0, 1, 0.0),
            ],
        );
        let probs = sv.probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12); // |00>
        assert!((probs[3] - 0.5).abs() < 1e-12); // |11>
        assert!(probs[1].abs() < 1e-12);
        assert!(probs[2].abs() < 1e-12);
    }

    #[test]
    fn cnot_control_ordering_matters() {
        // X on qubit 1, then CX with control=1, target=0 → both set.
        let sv = run_circuit(
            2,
            &[
                g1(GateKind::X, 1, 0.0),
                BoundGate::two(GateKind::Cx, 1, 0, 0.0),
            ],
        );
        assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cry_only_rotates_when_control_set() {
        let theta = 0.8;
        let idle = run_circuit(2, &[BoundGate::two(GateKind::Cry, 0, 1, theta)]);
        assert!(idle.prob_one(1).abs() < 1e-12);

        let active = run_circuit(
            2,
            &[
                g1(GateKind::X, 0, 0.0),
                BoundGate::two(GateKind::Cry, 0, 1, theta),
            ],
        );
        assert!((active.expect_z(1) - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let sv = run_circuit(
            2,
            &[
                g1(GateKind::X, 0, 0.0),
                BoundGate::two(GateKind::Swap, 0, 1, 0.0),
            ],
        );
        assert!(sv.prob_one(0).abs() < 1e-12);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_preserved_over_long_circuit() {
        let mut sv = StateVector::zero_state(4);
        let gates = [
            g1(GateKind::H, 0, 0.0),
            g1(GateKind::Rx, 1, 0.3),
            BoundGate::two(GateKind::Cry, 0, 2, 1.2),
            g1(GateKind::Rz, 3, 2.2),
            BoundGate::two(GateKind::Cx, 2, 3, 0.0),
            g1(GateKind::T, 0, 0.0),
            BoundGate::two(GateKind::Crz, 3, 1, 0.4),
        ];
        sv.run(&gates);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let a = run_circuit(2, &[g1(GateKind::Ry, 0, 0.4), g1(GateKind::Rz, 1, 1.0)]);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_changes_phase_not_populations() {
        let sv0 = run_circuit(1, &[g1(GateKind::H, 0, 0.0)]);
        let sv1 = run_circuit(1, &[g1(GateKind::H, 0, 0.0), g1(GateKind::Rz, 0, PI / 3.0)]);
        assert!((sv0.prob_one(0) - sv1.prob_one(0)).abs() < 1e-12);
        assert!(sv0.fidelity(&sv1) < 1.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prob_one_checks_range() {
        let sv = StateVector::zero_state(2);
        let _ = sv.prob_one(5);
    }

    #[test]
    #[should_panic(expected = "normalised")]
    fn from_amplitudes_rejects_unnormalised() {
        let _ = StateVector::from_amplitudes(vec![Complex64::ONE, Complex64::ONE]);
    }
}
