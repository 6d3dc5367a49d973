//! The noise-free (pure-environment) state-vector engine.
//!
//! Every noise-free evaluation in production runs here: single
//! evaluations ([`crate::executor::pure_z_scores`]) and the
//! finite-difference sweeps of base training, the ADMM θ-update and the
//! ADMM recovery fine-tune ([`crate::train::pure_fd_gradient`]).
//!
//! Per sample, every op of the model's circuit is bound **once** into a
//! stack-held [`PreboundGate`] (its 2×2 or 4×4 entries, with the kernel
//! chosen by the gate kind) in a buffer reused across samples. A
//! finite-difference sweep then evaluates the base circuit and the `±h`
//! probe of every requested weight, exploiting that a shift of weight `i`
//! changes only the ops referencing its parameter slot: one pass advances
//! a shared **prefix state** gate by gate, and every probe copies the
//! prefix at its divergence point (its first affected op, read from the
//! circuit's param→ops index) and replays only the suffix, re-deriving
//! just the affected ops' entries at the shifted angle.
//!
//! **Bit-identity**: every z-score equals the reference path bit for bit
//! — the [`transpile::circuit::Circuit::bind`] gates run through
//! [`quasim::statevector::run_circuit`]'s `CMatrix` kernels at the
//! correspondingly shifted weights:
//!
//! - the prebound entries are the reference's (`GateKind::entries_1q` /
//!   `entries_2q` build `GateKind::matrix`), and the kernels keep its
//!   expression order (see [`quasim::statevector`]);
//! - gates before a probe's divergence point are bound at unshifted
//!   angles, so the saved prefix is the state a from-scratch run reaches;
//! - a shifted op is bound at `full[param] ± h`, the angle
//!   [`transpile::circuit::Op::angle`] resolves from the shifted vector.
//!
//! The `prebound_props` tests pin this against the reference, and the
//! golden z-score fixture pins the trained result end to end.
//!
//! Cost per sample: one bind, one full run and `2·P` suffix replays (half
//! the circuit on average), on two state vectors; no allocation per gate
//! or per probe.

use crate::model::VqcModel;
use quasim::statevector::{PreboundGate, StateVector};

/// One probe's result: `(weight index, z at +h, z at −h)`.
pub type ShiftedScores = (usize, Vec<f64>, Vec<f64>);

/// Z scores of one sample's base evaluation and all its ±h probes, as
/// produced by [`pure_fd_probes`].
#[derive(Debug, Clone, PartialEq)]
pub struct PureProbes {
    /// Z scores at the unshifted weights (bit-identical to
    /// [`crate::executor::pure_z_scores`]).
    pub base: Vec<f64>,
    /// Per requested slot, in request order.
    pub shifted: Vec<ShiftedScores>,
}

/// Which evaluation of a finite-difference sweep a z-score vector belongs
/// to; `Plus(t)` / `Minus(t)` index the request's `slots`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The unshifted weights.
    Base,
    /// Weight `slots[t]` shifted by `+h`.
    Plus(usize),
    /// Weight `slots[t]` shifted by `−h`.
    Minus(usize),
}

/// The probes of one finite-difference request in sweep order, built once
/// per request (it depends only on the model and the slots, not on the
/// sample).
pub(crate) struct FdPlan {
    /// `(position in slots, parameter slot, divergence op index)`, sorted
    /// by divergence; a parameter no op references diverges at the end.
    probes: Vec<(usize, usize, usize)>,
}

impl FdPlan {
    /// Plans the `±h` probes of every weight in `slots`.
    ///
    /// # Panics
    ///
    /// Panics if a slot index is out of range.
    pub(crate) fn new(model: &VqcModel, slots: &[usize]) -> Self {
        let circuit = model.circuit();
        let mut probes: Vec<(usize, usize, usize)> = slots
            .iter()
            .enumerate()
            .map(|(t, &slot)| {
                let param = model.weight_slot(slot);
                let div = circuit
                    .ops_for_param(param)
                    .first()
                    .copied()
                    .unwrap_or(circuit.len());
                (t, param, div)
            })
            .collect();
        probes.sort_by_key(|p| p.2);
        FdPlan { probes }
    }
}

/// One worker's reusable buffers for noise-free evaluation of `model`:
/// the sample's flat parameters and prebound gates, the prefix and work
/// states and a z-score buffer. Reused across samples, so a sweep
/// allocates nothing per gate or per probe.
pub(crate) struct PureSweep<'m> {
    model: &'m VqcModel,
    measured: Vec<usize>,
    full: Vec<f64>,
    gates: Vec<PreboundGate>,
    prefix: StateVector,
    work: StateVector,
    z: Vec<f64>,
}

impl<'m> PureSweep<'m> {
    /// Allocates the buffers for `model`.
    pub(crate) fn new(model: &'m VqcModel) -> Self {
        let state = StateVector::zero_state(model.n_qubits());
        let measured = model.measured_logical();
        PureSweep {
            model,
            z: vec![0.0; measured.len()],
            measured,
            full: Vec::with_capacity(model.n_features() + model.n_weights()),
            gates: Vec::with_capacity(model.circuit().len()),
            work: state.clone(),
            prefix: state,
        }
    }

    /// Binds every op of one sample and resets the prefix to `|0…0⟩`.
    fn bind(&mut self, features: &[f64], weights: &[f64]) {
        let model = self.model;
        assert_eq!(features.len(), model.n_features(), "feature count mismatch");
        assert_eq!(weights.len(), model.n_weights(), "weight count mismatch");
        self.full.clear();
        self.full.extend_from_slice(features);
        self.full.extend_from_slice(weights);
        self.gates.clear();
        let full = &self.full;
        self.gates.extend(
            model
                .circuit()
                .ops()
                .iter()
                .map(|op| PreboundGate::new(op.kind, &op.qubits, op.angle(full))),
        );
        self.prefix.reset_zero();
    }

    /// Per-class `⟨Z⟩` of `state` into the z buffer.
    fn observe<'z>(z: &'z mut [f64], measured: &[usize], state: &StateVector) -> &'z [f64] {
        for (zk, &q) in z.iter_mut().zip(measured) {
            *zk = state.expect_z(q);
        }
        z
    }

    /// Z scores of one sample at `weights`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths mismatch the model.
    pub(crate) fn z_scores(&mut self, features: &[f64], weights: &[f64]) -> &[f64] {
        self.bind(features, weights);
        for g in &self.gates {
            self.prefix.apply_prebound(g);
        }
        Self::observe(&mut self.z, &self.measured, &self.prefix)
    }

    /// Evaluates one sample's base circuit and the `±h` probes of `plan`,
    /// sharing prefix states (see the [module docs](self)); `visit`
    /// receives every probe's z scores, the base last.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths mismatch the model or `h` is not finite.
    pub(crate) fn fd_sweep(
        &mut self,
        plan: &FdPlan,
        features: &[f64],
        weights: &[f64],
        h: f64,
        mut visit: impl FnMut(Probe, &[f64]),
    ) {
        assert!(h.is_finite(), "shift must be finite");
        self.bind(features, weights);
        let circuit = self.model.circuit();
        let ops = circuit.ops();
        let mut cursor = 0usize;
        for &(t, param, div) in &plan.probes {
            // Advance the shared prefix to this probe's divergence point;
            // every earlier probe diverged at or before it, so each gate is
            // applied exactly once across the whole sweep.
            while cursor < div {
                self.prefix.apply_prebound(&self.gates[cursor]);
                cursor += 1;
            }
            let affected = circuit.ops_for_param(param);
            for (sign, probe) in [(1.0, Probe::Plus(t)), (-1.0, Probe::Minus(t))] {
                let shifted = self.full[param] + sign * h;
                self.work.clone_from(&self.prefix);
                let mut next_affected = affected.iter().peekable();
                for (idx, (op, gate)) in (div..).zip(ops[div..].iter().zip(&self.gates[div..])) {
                    if next_affected.next_if_eq(&&idx).is_some() {
                        self.work
                            .apply_prebound(&PreboundGate::new(op.kind, &op.qubits, shifted));
                    } else {
                        self.work.apply_prebound(gate);
                    }
                }
                visit(
                    probe,
                    Self::observe(&mut self.z, &self.measured, &self.work),
                );
            }
        }
        // Finish the base run: the prefix carried through every gate is the
        // unshifted evaluation itself.
        for g in &self.gates[cursor..] {
            self.prefix.apply_prebound(g);
        }
        visit(
            Probe::Base,
            Self::observe(&mut self.z, &self.measured, &self.prefix),
        );
    }
}

/// Evaluates the base circuit and the `±h` finite-difference probes of
/// every weight in `slots` for one sample, sharing prefix states across
/// probes (see the [module docs](self)).
///
/// # Panics
///
/// Panics if slice lengths mismatch the model, a slot index is out of
/// range, or `h` is not finite.
pub fn pure_fd_probes(
    model: &VqcModel,
    features: &[f64],
    weights: &[f64],
    h: f64,
    slots: &[usize],
) -> PureProbes {
    let plan = FdPlan::new(model, slots);
    let mut base = Vec::new();
    let mut shifted: Vec<ShiftedScores> =
        slots.iter().map(|&s| (s, Vec::new(), Vec::new())).collect();
    PureSweep::new(model).fd_sweep(&plan, features, weights, h, |probe, z| match probe {
        Probe::Base => base = z.to_vec(),
        Probe::Plus(t) => shifted[t].1 = z.to_vec(),
        Probe::Minus(t) => shifted[t].2 = z.to_vec(),
    });
    PureProbes { base, shifted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::pure_z_scores;

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn pure_probes_match_full_reruns() {
        let model = VqcModel::paper_model(4, 4, 8, 2);
        let weights = model.init_weights(11);
        let features = [0.4, 0.9, 1.3, 2.0, 0.2, 1.7, 0.8, 2.6];
        let h = 1e-3;
        let slots: Vec<usize> = (0..model.n_weights()).collect();
        let probes = pure_fd_probes(&model, &features, &weights, h, &slots);
        assert_bits_eq(
            &probes.base,
            &pure_z_scores(&model, &features, &weights),
            "base",
        );
        assert_eq!(probes.shifted.len(), slots.len());
        for (slot, zp, zm) in &probes.shifted {
            let mut w = weights.clone();
            w[*slot] += h;
            assert_bits_eq(zp, &pure_z_scores(&model, &features, &w), "plus");
            let mut w = weights.clone();
            w[*slot] -= h;
            assert_bits_eq(zm, &pure_z_scores(&model, &features, &w), "minus");
        }
    }

    #[test]
    fn pure_probes_handle_subset_and_unsorted_slots() {
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let weights = model.init_weights(3);
        let features = [0.1, 0.5, 0.9, 1.4];
        let h = 0.05;
        // Unsorted, non-contiguous request: results must come back in
        // request order.
        let slots = [7usize, 0, 11, 3];
        let probes = pure_fd_probes(&model, &features, &weights, h, &slots);
        for ((slot, zp, _), &want_slot) in probes.shifted.iter().zip(slots.iter()) {
            assert_eq!(*slot, want_slot);
            let mut w = weights.clone();
            w[*slot] += h;
            assert_bits_eq(zp, &pure_z_scores(&model, &features, &w), "plus");
        }
    }

    #[test]
    fn pure_probes_cross_identity_boundaries() {
        // A probe that pushes a weight onto (and off) an identity angle
        // changes nothing for the pure path — no simplification runs here —
        // but it is the key-splitting case of the noisy engine, so keep the
        // pure oracle honest on it too.
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let mut weights = model.init_weights(2);
        weights[0] = 0.0;
        weights[1] = -0.05;
        let features = [0.2, 0.4, 0.6, 0.8];
        let probes = pure_fd_probes(&model, &features, &weights, 0.05, &[0, 1]);
        for (slot, zp, zm) in &probes.shifted {
            let mut w = weights.clone();
            w[*slot] += 0.05;
            assert_bits_eq(zp, &pure_z_scores(&model, &features, &w), "plus");
            let mut w = weights.clone();
            w[*slot] -= 0.05;
            assert_bits_eq(zm, &pure_z_scores(&model, &features, &w), "minus");
        }
    }
}
