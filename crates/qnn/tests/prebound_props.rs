//! Differential property tests of the prebound noise-free engine against
//! the retained `CMatrix` reference (`Circuit::bind` + `run_circuit`,
//! i.e. `StateVector::apply_1q` / `apply_2q`).
//!
//! Contract: z-scores are equal bit for bit and amplitudes are equal under
//! `==`. A skipped exact-zero product may flip only the sign of an
//! exact-zero amplitude, which `==` ignores and `norm_sqr` erases.
//!
//! Inputs: random circuits over every `GateKind` (both operand orders of
//! every two-qubit kind) and all three Table I models, with angles drawn
//! to include 0, −0.0, ±2π, 4π and 1e-300.

use proptest::prelude::*;
use qnn::executor::pure_z_scores;
use qnn::model::VqcModel;
use qnn::probe::pure_fd_probes;
use quasim::gate::{BoundGate, GateKind};
use quasim::statevector::{run_circuit, PreboundGate, StateVector};
use std::f64::consts::TAU;

const ALL_KINDS: [GateKind; 17] = [
    GateKind::X,
    GateKind::Y,
    GateKind::Z,
    GateKind::H,
    GateKind::S,
    GateKind::T,
    GateKind::Sx,
    GateKind::Rx,
    GateKind::Ry,
    GateKind::Rz,
    GateKind::Phase,
    GateKind::Cx,
    GateKind::Cz,
    GateKind::Crx,
    GateKind::Cry,
    GateKind::Crz,
    GateKind::Swap,
];

fn arb_angle() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(TAU),
        Just(-TAU),
        Just(2.0 * TAU),
        Just(1e-300),
        -7.0f64..7.0,
    ]
}

/// A raw gate draw `(kind index, first operand, operand offset, angle)`,
/// placed on an `n`-qubit register by [`place`].
fn arb_gate() -> impl Strategy<Value = (usize, usize, usize, f64)> {
    (0..ALL_KINDS.len(), 0usize..64, 0usize..64, arb_angle())
}

/// Places a raw draw on `n` qubits: the second operand of a two-qubit kind
/// sits at any nonzero offset from the first, so both orders occur.
fn place(n: usize, (k, a, off, theta): (usize, usize, usize, f64)) -> BoundGate {
    let kind = ALL_KINDS[k];
    let a = a % n;
    if kind.arity() == 1 {
        BoundGate::one(kind, a, theta)
    } else {
        BoundGate::two(kind, a, (a + 1 + off % (n - 1)) % n, theta)
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) -> Result<(), String> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert!(x.to_bits() == y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
    Ok(())
}

/// The reference z-scores: `Circuit::bind` gates on the `CMatrix` kernels.
fn reference_z(model: &VqcModel, features: &[f64], weights: &[f64]) -> Vec<f64> {
    let gates = model.circuit().bind(&model.full_params(features, weights));
    let sv = run_circuit(model.n_qubits(), &gates);
    model
        .measured_logical()
        .iter()
        .map(|&q| sv.expect_z(q))
        .collect()
}

fn table1_models() -> [VqcModel; 3] {
    [
        VqcModel::paper_model(4, 4, 16, 2),
        VqcModel::paper_model(4, 3, 4, 3),
        VqcModel::paper_model(4, 2, 4, 2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random circuits over every gate kind: the prebound kernels reach
    /// the reference's amplitudes (under `==`) and its `⟨Z⟩` on every qubit
    /// (bit for bit), after every gate.
    #[test]
    fn prebound_kernels_match_cmatrix_reference(
        n in 2usize..6,
        draws in proptest::collection::vec(arb_gate(), 1..48),
    ) {
        let gates: Vec<BoundGate> = draws.into_iter().map(|d| place(n, d)).collect();
        let mut reference = StateVector::zero_state(n);
        let mut prebound = StateVector::zero_state(n);
        for (k, g) in gates.iter().enumerate() {
            reference.apply(g);
            prebound.apply_prebound(&PreboundGate::new(g.kind(), g.qubits(), g.theta()));
            prop_assert!(
                prebound.amplitudes() == reference.amplitudes(),
                "amplitudes differ after gate {k} ({} on {:?})", g.kind(), g.qubits()
            );
        }
        let z_ref: Vec<f64> = (0..n).map(|q| reference.expect_z(q)).collect();
        let z_pre: Vec<f64> = (0..n).map(|q| prebound.expect_z(q)).collect();
        assert_bits_eq(&z_pre, &z_ref, "z")?;
        let whole = run_circuit(n, &gates);
        prop_assert!(whole == reference, "run_circuit disagrees with apply");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Table I models: `pure_z_scores` and every `±h` probe of
    /// `pure_fd_probes` equal the reference at the shifted weights, bit
    /// for bit.
    #[test]
    fn table1_models_match_reference(
        features in proptest::collection::vec(arb_angle(), 16),
        weights in proptest::collection::vec(arb_angle(), 120),
        h in prop_oneof![Just(1e-3), Just(0.05), Just(TAU), Just(1e-300)],
    ) {
        for model in table1_models() {
            let f = &features[..model.n_features()];
            let w = &weights[..model.n_weights()];
            let want = reference_z(&model, f, w);
            assert_bits_eq(&pure_z_scores(&model, f, w), &want, "pure_z_scores")?;

            let slots: Vec<usize> = (0..model.n_weights()).collect();
            let probes = pure_fd_probes(&model, f, w, h, &slots);
            assert_bits_eq(&probes.base, &want, "base")?;
            for (slot, zp, zm) in &probes.shifted {
                let mut shifted = w.to_vec();
                shifted[*slot] = w[*slot] + h;
                assert_bits_eq(zp, &reference_z(&model, f, &shifted), "plus")?;
                shifted[*slot] = w[*slot] - h;
                assert_bits_eq(zm, &reference_z(&model, f, &shifted), "minus")?;
            }
        }
    }
}
