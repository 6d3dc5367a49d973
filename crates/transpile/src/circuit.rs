//! Parameterised logical circuit IR.
//!
//! A [`Circuit`] is a time-ordered list of [`Op`]s over *logical* qubits.
//! Rotation angles are either trainable parameters (indices into an external
//! `θ` vector, the QNN weights) or fixed constants (e.g. data-encoding
//! angles). Binding a parameter vector produces the [`BoundGate`] sequence
//! the simulators consume.

use quasim::gate::{BoundGate, GateKind};

/// A rotation angle: trainable parameter or fixed constant.
///
/// # Examples
///
/// ```
/// use transpile::circuit::Param;
///
/// assert_eq!(Param::Idx(3).resolve(&[0.0, 0.0, 0.0, 1.5]), 1.5);
/// assert_eq!(Param::Fixed(0.25).resolve(&[]), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// Index into the trainable parameter vector `θ`.
    Idx(usize),
    /// A fixed angle (data encoding, calibration pulses, …).
    Fixed(f64),
}

impl Param {
    /// Resolves the angle against a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if a parameter index is out of range.
    pub fn resolve(&self, theta: &[f64]) -> f64 {
        match *self {
            Param::Idx(i) => {
                assert!(i < theta.len(), "parameter index {i} out of range");
                theta[i]
            }
            Param::Fixed(v) => v,
        }
    }

    /// The trainable index, if any.
    pub fn idx(&self) -> Option<usize> {
        match *self {
            Param::Idx(i) => Some(i),
            Param::Fixed(_) => None,
        }
    }
}

/// One gate application in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Gate kind.
    pub kind: GateKind,
    /// Qubit operands (control first for controlled gates).
    pub qubits: Vec<usize>,
    /// Rotation angle for parameterised kinds, `None` for fixed gates.
    pub param: Option<Param>,
}

impl Op {
    /// The op's angle against a parameter vector (0 for fixed gates).
    ///
    /// # Panics
    ///
    /// Panics if a parameter index is out of range.
    pub fn angle(&self, theta: &[f64]) -> f64 {
        self.param.map_or(0.0, |p| p.resolve(theta))
    }

    /// Binds this op against a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if a parameter index is out of range.
    pub fn bind(&self, theta: &[f64]) -> BoundGate {
        let angle = self.angle(theta);
        match self.qubits.as_slice() {
            [q] => BoundGate::one(self.kind, *q, angle),
            [a, b] => BoundGate::two(self.kind, *a, *b, angle),
            _ => unreachable!("ops always have 1 or 2 qubits"),
        }
    }
}

/// A parameterised quantum circuit over logical qubits.
///
/// # Examples
///
/// ```
/// use transpile::circuit::{Circuit, Param};
///
/// let mut c = Circuit::new(2);
/// c.ry(0, Param::Idx(0));
/// c.cry(0, 1, Param::Idx(1));
/// assert_eq!(c.n_params(), 2);
/// let bound = c.bind(&[0.5, 1.0]);
/// assert_eq!(bound.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Op>,
    n_params: usize,
    /// `param_ops[i]`: indices of the ops referencing trainable parameter
    /// `i`, ascending; maintained by [`Circuit::push`].
    param_ops: Vec<Vec<usize>>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` logical qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "circuit needs at least one qubit");
        Circuit {
            n_qubits,
            ops: Vec::new(),
            n_params: 0,
            param_ops: Vec::new(),
        }
    }

    /// Number of logical qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Time-ordered operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of distinct trainable parameters referenced
    /// (`1 + max index`, 0 if none).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends a raw op.
    ///
    /// # Panics
    ///
    /// Panics if operand count mismatches the gate arity, qubits are out of
    /// range or duplicated, or a parameter is supplied for a fixed gate
    /// (or missing for a parameterised one).
    pub fn push(&mut self, op: Op) {
        assert_eq!(op.qubits.len(), op.kind.arity(), "operand count mismatch");
        for &q in &op.qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        if op.qubits.len() == 2 {
            assert_ne!(op.qubits[0], op.qubits[1], "duplicate operand qubits");
        }
        assert_eq!(
            op.param.is_some(),
            op.kind.is_parameterised(),
            "parameter presence must match gate kind {}",
            op.kind
        );
        if let Some(Param::Idx(i)) = op.param {
            self.n_params = self.n_params.max(i + 1);
            if self.param_ops.len() <= i {
                self.param_ops.resize_with(i + 1, Vec::new);
            }
            self.param_ops[i].push(self.ops.len());
        }
        self.ops.push(op);
    }

    /// Appends an `RX(θ)` on `q`.
    pub fn rx(&mut self, q: usize, p: Param) -> &mut Self {
        self.push(Op {
            kind: GateKind::Rx,
            qubits: vec![q],
            param: Some(p),
        });
        self
    }

    /// Appends an `RY(θ)` on `q`.
    pub fn ry(&mut self, q: usize, p: Param) -> &mut Self {
        self.push(Op {
            kind: GateKind::Ry,
            qubits: vec![q],
            param: Some(p),
        });
        self
    }

    /// Appends an `RZ(θ)` on `q`.
    pub fn rz(&mut self, q: usize, p: Param) -> &mut Self {
        self.push(Op {
            kind: GateKind::Rz,
            qubits: vec![q],
            param: Some(p),
        });
        self
    }

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Op {
            kind: GateKind::H,
            qubits: vec![q],
            param: None,
        });
        self
    }

    /// Appends a Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Op {
            kind: GateKind::X,
            qubits: vec![q],
            param: None,
        });
        self
    }

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Op {
            kind: GateKind::Cx,
            qubits: vec![c, t],
            param: None,
        });
        self
    }

    /// Appends a controlled `RX(θ)`.
    pub fn crx(&mut self, c: usize, t: usize, p: Param) -> &mut Self {
        self.push(Op {
            kind: GateKind::Crx,
            qubits: vec![c, t],
            param: Some(p),
        });
        self
    }

    /// Appends a controlled `RY(θ)`.
    pub fn cry(&mut self, c: usize, t: usize, p: Param) -> &mut Self {
        self.push(Op {
            kind: GateKind::Cry,
            qubits: vec![c, t],
            param: Some(p),
        });
        self
    }

    /// Appends a controlled `RZ(θ)`.
    pub fn crz(&mut self, c: usize, t: usize, p: Param) -> &mut Self {
        self.push(Op {
            kind: GateKind::Crz,
            qubits: vec![c, t],
            param: Some(p),
        });
        self
    }

    /// Binds every op against `theta`, producing simulator-ready gates.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is shorter than [`Circuit::n_params`].
    pub fn bind(&self, theta: &[f64]) -> Vec<BoundGate> {
        assert!(
            theta.len() >= self.n_params,
            "need {} parameters, got {}",
            self.n_params,
            theta.len()
        );
        self.ops.iter().map(|op| op.bind(theta)).collect()
    }

    /// Returns a copy with every parameterised gate whose bound angle makes
    /// it the identity (within `tol`) removed: `0 mod 2π` for plain
    /// rotations (at `2π` the `−I` is a global phase), `0 mod 4π` for
    /// controlled rotations (at `2π` the control promotes the target's
    /// `−I` to a physical controlled phase, so the gate must stay).
    ///
    /// This mirrors what a production transpiler does before routing: a
    /// `CRY(0)` never reaches the device, so neither do the SWAPs that
    /// routing would have inserted for it — the main physical-length win of
    /// parameter compression.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is shorter than [`Circuit::n_params`].
    pub fn simplified(&self, theta: &[f64], tol: f64) -> Circuit {
        assert!(
            theta.len() >= self.n_params,
            "need {} parameters, got {}",
            self.n_params,
            theta.len()
        );
        let mut out = Circuit::new(self.n_qubits);
        for op in &self.ops {
            let keep = match op.param {
                Some(p) => !angle_is_identity(op.kind, p.resolve(theta), tol),
                None => true,
            };
            if keep {
                out.push(op.clone());
            }
        }
        out.n_params = self.n_params;
        out
    }

    /// Indices of ops that reference trainable parameter `i`, ascending
    /// (empty if none). Reads the index [`Circuit::push`] maintains, so a
    /// lookup costs no scan.
    pub fn ops_for_param(&self, i: usize) -> &[usize] {
        self.param_ops.get(i).map_or(&[], Vec::as_slice)
    }
}

/// Whether a parameterised gate of `kind` bound at `angle` is the identity
/// within `tol`.
///
/// Plain rotations have period 2π (at `2π` the unitary is `−I`, an
/// unobservable global phase); controlled rotations have period 4π — at
/// `2π` the control promotes the target's `−I` to a *physical* controlled
/// phase (`CR(2π) = diag(1, 1, −1, −1)`), so only multiples of 4π vanish.
///
/// This is the single identity-angle rule shared by [`Circuit::simplified`]
/// and `transpile::expand`, so the pre-routing drop pass and the
/// native-gate expansion can never disagree about which gates exist.
pub fn angle_is_identity(kind: GateKind, angle: f64, tol: f64) -> bool {
    let period = std::f64::consts::TAU * kind.arity() as f64;
    let mut a = angle % period;
    if a < 0.0 {
        a += period;
    }
    a < tol || (period - a) < tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_param_count() {
        let mut c = Circuit::new(3);
        c.ry(0, Param::Idx(0))
            .cry(0, 1, Param::Idx(4))
            .rx(2, Param::Fixed(0.3));
        assert_eq!(c.n_params(), 5);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn bind_resolves_params_and_constants() {
        let mut c = Circuit::new(2);
        c.ry(0, Param::Idx(1)).rx(1, Param::Fixed(0.25));
        let bound = c.bind(&[9.0, 0.5]);
        assert_eq!(bound[0].theta(), 0.5);
        assert_eq!(bound[1].theta(), 0.25);
    }

    #[test]
    fn ops_for_param_finds_shared_params() {
        let mut c = Circuit::new(2);
        c.ry(0, Param::Idx(0))
            .ry(1, Param::Idx(0))
            .rz(0, Param::Idx(1));
        assert_eq!(c.ops_for_param(0), vec![0, 1]);
        assert_eq!(c.ops_for_param(1), vec![2]);
        assert!(c.ops_for_param(7).is_empty());
    }

    #[test]
    fn fixed_gates_have_no_param() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        assert_eq!(c.n_params(), 0);
        let bound = c.bind(&[]);
        assert_eq!(bound.len(), 2);
    }

    #[test]
    fn simplified_drops_identity_gates() {
        let mut c = Circuit::new(3);
        c.ry(0, Param::Idx(0))
            .cry(0, 1, Param::Idx(1))
            .crz(1, 2, Param::Idx(2))
            .h(2)
            .rx(1, Param::Fixed(0.0));
        let s = c.simplified(&[0.0, 1.2, 2.0 * std::f64::consts::TAU, 9.9], 1e-9);
        // RY(0), CRZ(4π) and fixed RX(0) vanish; CRY(1.2) and H stay.
        assert_eq!(s.len(), 2);
        assert_eq!(s.ops()[0].kind, quasim::gate::GateKind::Cry);
        assert_eq!(s.ops()[1].kind, quasim::gate::GateKind::H);
        // Parameter space is unchanged (indices still valid).
        assert_eq!(s.n_params(), c.n_params());
    }

    #[test]
    fn simplified_keeps_controlled_rotation_at_two_pi() {
        // CRZ(2π) = diag(1, 1, −1, −1): the control turns the target's −I
        // global phase into a physical controlled phase, so it must not be
        // simplified away (controlled rotations have period 4π).
        let mut c = Circuit::new(2);
        c.crz(0, 1, Param::Idx(0)).ry(0, Param::Idx(1));
        let s = c.simplified(&[std::f64::consts::TAU, std::f64::consts::TAU], 1e-9);
        assert_eq!(s.len(), 1);
        assert_eq!(s.ops()[0].kind, quasim::gate::GateKind::Crz);
    }

    #[test]
    fn simplified_negative_angles_wrap() {
        let mut c = Circuit::new(1);
        c.ry(0, Param::Idx(0));
        assert!(c.simplified(&[-std::f64::consts::TAU], 1e-9).is_empty());
        assert_eq!(c.simplified(&[-0.3], 1e-9).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_bad_qubit() {
        let mut c = Circuit::new(2);
        c.ry(5, Param::Idx(0));
    }

    #[test]
    #[should_panic(expected = "need 2 parameters")]
    fn bind_rejects_short_theta() {
        let mut c = Circuit::new(1);
        c.ry(0, Param::Idx(1));
        let _ = c.bind(&[0.1]);
    }

    #[test]
    #[should_panic(expected = "duplicate operand")]
    fn push_rejects_duplicate_qubits() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }
}
