//! Property tests of the batched trajectory panel: for arbitrary fused
//! programs, seeds, budgets, and panel widths, [`TrajectoryPanel`]
//! execution must be **bit-identical** to the per-trajectory engine —
//! estimate means and standard errors, and every individual column's
//! amplitudes.

use proptest::prelude::*;
use quasim::fused::{FusedProgram, ProgramBuilder};
use quasim::gate::GateKind;
use quasim::trajectory::{
    estimate_prob_one, estimate_prob_one_panel, KernelMode, TrajectoryPanel, TrajectoryWorkspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum AtomSpec {
    Gate1(u8, usize, f64),
    Gate2(u8, usize, usize, f64),
    Cx(usize, usize),
    Noise1(usize, f64),
    Noise2(usize, usize, f64),
}

fn arb_atom(n: usize) -> impl Strategy<Value = AtomSpec> {
    (
        0usize..5,
        0u8..6,
        0usize..n,
        0usize..n,
        -7.0f64..7.0,
        0.0f64..0.6,
    )
        .prop_filter_map(
            "distinct qubits for two-qubit atoms",
            move |(class, kind, a, b, theta, lambda)| match class {
                0 => Some(AtomSpec::Gate1(kind, a, theta)),
                1 if a != b => Some(AtomSpec::Gate2(kind, a, b, theta)),
                2 if a != b => Some(AtomSpec::Cx(a, b)),
                3 => Some(AtomSpec::Noise1(a, lambda)),
                4 if a != b => Some(AtomSpec::Noise2(a, b, lambda)),
                _ => None,
            },
        )
}

/// A register size with a program over it. Sizes 1 and 2 pin the one- and
/// two-wire strip groups (no supergroup there can span three wires), 3 to
/// 5 the eight-strip groups with every placement of their wires.
fn arb_program(atoms: std::ops::Range<usize>) -> impl Strategy<Value = (usize, Vec<AtomSpec>)> {
    use proptest::collection::vec;
    prop_oneof![
        vec(arb_atom(1), atoms.clone()).prop_map(|s| (1, s)),
        vec(arb_atom(2), atoms.clone()).prop_map(|s| (2, s)),
        vec(arb_atom(3), atoms.clone()).prop_map(|s| (3, s)),
        vec(arb_atom(4), atoms.clone()).prop_map(|s| (4, s)),
        vec(arb_atom(5), atoms).prop_map(|s| (5, s)),
    ]
}

fn build_program(n_qubits: usize, specs: &[AtomSpec]) -> FusedProgram {
    let g1 = [
        GateKind::H,
        GateKind::X,
        GateKind::Ry,
        GateKind::Rx,
        GateKind::Rz,
        GateKind::Phase,
    ];
    let g2 = [
        GateKind::Cry,
        GateKind::Crx,
        GateKind::Crz,
        GateKind::Cz,
        GateKind::Swap,
        GateKind::Cry,
    ];
    let mut b = ProgramBuilder::new(n_qubits);
    for spec in specs {
        match *spec {
            AtomSpec::Gate1(k, q, theta) => {
                let kind = g1[k as usize % g1.len()];
                b.unitary_1q(q, kind.entries_1q(theta).expect("1q entries"));
            }
            AtomSpec::Gate2(k, x, y, theta) => {
                let kind = g2[k as usize % g2.len()];
                b.unitary_2q(x, y, kind.entries_2q(theta).expect("2q entries"));
            }
            AtomSpec::Cx(c, t) => b.cx(c, t),
            AtomSpec::Noise1(q, lambda) => b.depolarize_1q(q, lambda),
            AtomSpec::Noise2(x, y, lambda) => b.depolarize_2q(lambda, x, y),
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The panel estimate equals the per-trajectory estimate bit for bit
    /// at every width, including widths that split the budget into uneven
    /// chunks and widths larger than the budget.
    #[test]
    fn panel_estimate_bit_identical_at_every_width(
        prog in arb_program(1..30),
        seed in any::<u64>(),
        n_traj in 1u32..40,
        width in 1usize..48,
    ) {
        let (n_qubits, specs) = prog;
        let program = build_program(n_qubits, &specs);
        let qubits: Vec<usize> = (0..n_qubits).collect();
        let mut ws = TrajectoryWorkspace::new();
        let reference = estimate_prob_one(&mut ws, &program, &qubits, n_traj, seed);
        let mut panel = TrajectoryPanel::new();
        let got = estimate_prob_one_panel(&mut panel, &program, &qubits, n_traj, seed, width);
        prop_assert_eq!(got.n_trajectories, reference.n_trajectories);
        for q in 0..n_qubits {
            prop_assert!(
                got.p_one[q].to_bits() == reference.p_one[q].to_bits(),
                "width {} qubit {} p_one: {} vs {}",
                width, q, got.p_one[q], reference.p_one[q]
            );
            prop_assert!(
                got.std_err[q].to_bits() == reference.std_err[q].to_bits(),
                "width {} qubit {} std_err: {} vs {}",
                width, q, got.std_err[q], reference.std_err[q]
            );
        }
    }

    /// Every panel column's final amplitudes equal the per-trajectory
    /// engine replaying the same draw sequence — the panel really is B
    /// independent trajectories, not an approximation of them.
    #[test]
    fn panel_columns_bit_identical_to_sequential_runs(
        prog in arb_program(1..25),
        seed in any::<u64>(),
        batch in 1usize..12,
    ) {
        let (n_qubits, specs) = prog;
        let program = build_program(n_qubits, &specs);
        let n_stoch = program.n_stochastic_atoms();
        let mut rng = StdRng::seed_from_u64(seed);
        let uniforms: Vec<f64> = (0..batch * n_stoch).map(|_| rng.gen()).collect();

        let mut panel = TrajectoryPanel::new();
        panel.reset_zero(n_qubits, batch);
        panel.run_stochastic(&program, &uniforms);

        let mut replay = StdRng::seed_from_u64(seed);
        let mut ws = TrajectoryWorkspace::new();
        for c in 0..batch {
            ws.reset_zero(n_qubits);
            ws.run_stochastic(&program, &mut replay);
            let col = panel.column(c);
            for (i, (a, b)) in col.iter().zip(ws.amplitudes().iter()).enumerate() {
                prop_assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "column {} amplitude {}: {} vs {}", c, i, a, b
                );
            }
        }
    }

    /// Wide registers exercise the wide-tile sweep regimes (`pair ≥ tile`
    /// / `ms ≥ tile`) that 4-qubit programs never reach: on a 12-qubit
    /// register every qubit from 6 up runs the tiled wide path (pair runs
    /// of `2^q · b ≥ 512` elements), so this pins the panel's bit-identity
    /// on the code paths the 16-qubit guadalupe workload uses.
    #[test]
    fn wide_register_panel_bit_identical(
        seed in any::<u64>(),
        width in prop_oneof![Just(1usize), Just(3), Just(8)],
    ) {
        const N: usize = 12;
        let mut b = ProgramBuilder::new(N);
        for q in 0..N {
            b.unitary_1q(q, GateKind::Ry.entries_1q(0.2 + 0.1 * q as f64).unwrap());
            b.depolarize_1q(q, 0.05);
        }
        for q in [0usize, 5, 10] {
            b.cx(q, q + 1);
            b.depolarize_2q(0.08, q, q + 1);
            b.unitary_1q(q + 1, GateKind::Rz.entries_1q(-0.3).unwrap());
        }
        b.unitary_2q(11, 2, GateKind::Cry.entries_2q(0.9).unwrap());
        let program = b.finish();
        let qubits: Vec<usize> = (0..N).collect();
        let mut ws = TrajectoryWorkspace::new();
        let reference = estimate_prob_one(&mut ws, &program, &qubits, 8, seed);
        let mut panel = TrajectoryPanel::new();
        let got = estimate_prob_one_panel(&mut panel, &program, &qubits, 8, seed, width);
        for q in 0..N {
            prop_assert!(
                got.p_one[q].to_bits() == reference.p_one[q].to_bits(),
                "width {} qubit {}: {} vs {}",
                width, q, got.p_one[q], reference.p_one[q]
            );
        }
    }

    /// The AVX2 kernels are a bit-exact drop-in for the scalar oracle: on
    /// hosts with AVX2, running the same program over the same draw
    /// sequence under both dispatch modes yields bitwise-equal panels at
    /// every width (the intrinsics use only mul/add/sub in the scalar
    /// association order, so this holds exactly, not approximately).
    #[test]
    fn scalar_and_avx2_panels_bit_identical(
        prog in arb_program(1..25),
        seed in any::<u64>(),
        batch in 1usize..12,
    ) {
        let (n_qubits, specs) = prog;
        if KernelMode::avx2_supported() {
            let program = build_program(n_qubits, &specs);
            let n_stoch = program.n_stochastic_atoms();
            let mut rng = StdRng::seed_from_u64(seed);
            let uniforms: Vec<f64> = (0..batch * n_stoch).map(|_| rng.gen()).collect();

            let mut scalar = TrajectoryPanel::new();
            scalar.set_kernel_mode(KernelMode::Scalar);
            scalar.reset_zero(n_qubits, batch);
            scalar.run_stochastic(&program, &uniforms);

            let mut avx2 = TrajectoryPanel::new();
            avx2.set_kernel_mode(KernelMode::Avx2);
            avx2.reset_zero(n_qubits, batch);
            avx2.run_stochastic(&program, &uniforms);

            for c in 0..batch {
                let (s, v) = (scalar.column(c), avx2.column(c));
                for (i, (a, b)) in s.iter().zip(v.iter()).enumerate() {
                    prop_assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "column {} amplitude {}: scalar {} vs avx2 {}", c, i, a, b
                    );
                }
            }
        }
    }

    /// Ragged final chunks: the widths the audit singled out — 1 (fully
    /// sequential), 3 (never divides a power-of-two budget), 16 (the auto
    /// cap), and `n_traj + 1` (one chunk wider than the budget) — all
    /// reproduce the per-trajectory estimate bit for bit, including the
    /// short remainder chunk's draw-stream alignment.
    #[test]
    fn ragged_final_chunks_bit_identical(
        prog in arb_program(1..25),
        seed in any::<u64>(),
        n_traj in 1u32..40,
    ) {
        let (n_qubits, specs) = prog;
        let program = build_program(n_qubits, &specs);
        let qubits: Vec<usize> = (0..n_qubits).collect();
        let mut ws = TrajectoryWorkspace::new();
        let reference = estimate_prob_one(&mut ws, &program, &qubits, n_traj, seed);
        for width in [1usize, 3, 16, n_traj as usize + 1] {
            let mut panel = TrajectoryPanel::new();
            let got = estimate_prob_one_panel(&mut panel, &program, &qubits, n_traj, seed, width);
            prop_assert_eq!(got.n_trajectories, reference.n_trajectories);
            for q in 0..n_qubits {
                prop_assert!(
                    got.p_one[q].to_bits() == reference.p_one[q].to_bits(),
                    "width {} qubit {} p_one: {} vs {}",
                    width, q, got.p_one[q], reference.p_one[q]
                );
                prop_assert!(
                    got.std_err[q].to_bits() == reference.std_err[q].to_bits(),
                    "width {} qubit {} std_err: {} vs {}",
                    width, q, got.std_err[q], reference.std_err[q]
                );
            }
        }
    }

    /// The single-sweep all-qubit marginal accumulator matches the
    /// per-qubit walk bit for bit on arbitrary reachable states.
    #[test]
    fn probs_one_all_matches_prob_one(
        prog in arb_program(1..25),
        seed in any::<u64>(),
    ) {
        let (n_qubits, specs) = prog;
        let program = build_program(n_qubits, &specs);
        let mut ws = TrajectoryWorkspace::new();
        let mut rng = StdRng::seed_from_u64(seed);
        ws.reset_zero(n_qubits);
        ws.run_stochastic(&program, &mut rng);
        let all = ws.probs_one_all();
        for (q, p) in all.iter().enumerate() {
            prop_assert!(p.to_bits() == ws.prob_one(q).to_bits());
        }
    }
}
