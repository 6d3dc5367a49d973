//! The wide-device part: the `fig10_guadalupe` Quick scenario. A 16-qubit
//! model on `ibm_guadalupe` with the trajectory backend, 3 days × 4
//! samples × 32 trajectories. The `quasim::trajectory` panel kernels do
//! almost all of the work; the density engine, ADMM and serving do none.

use crate::clock::Stamp;
use std::hint::black_box;

use calibration::history::{FluctuatingHistory, HistoryConfig};
use calibration::topology::Topology;
use qnn::data::{Dataset, Sample};
use qnn::executor::{parallel, NoiseOptions, NoisyExecutor, SimBackend};
use qnn::model::VqcModel;
use quasim::trajectory::{
    estimate_prob_one, estimate_prob_one_panel, panel_width_from_env, TrajectoryPanel,
    TrajectoryWorkspace,
};

use crate::report::{Checks, Metrics};
use crate::stats::{max, median, min};
use crate::trace::Tracer;
use crate::SETUP_REPEATS;

/// Default seed, as `fig10_guadalupe` uses.
pub const DEFAULT_SEED: u64 = 42;

const DAYS: usize = 3;
const SAMPLES: usize = 4;
const TRAJECTORIES: u32 = 32;
/// Trajectories of the panel-versus-oracle check (reduced: the
/// per-trajectory oracle is the slow engine).
const ORACLE_TRAJECTORIES: u32 = 8;

/// Everything one evaluation pass needs.
struct Scenario {
    history: FluctuatingHistory,
    eval_set: Vec<Sample>,
    weights: Vec<f64>,
    exec: NoisyExecutor,
}

impl Scenario {
    /// Builds the scenario as `fig10_guadalupe --scale=quick` does, with
    /// the trajectory backend pinned here rather than read from the
    /// environment, and the device history drawn at the default seed
    /// whatever the run's seed (as for Table I).
    fn build(seed: u64) -> Self {
        let topo = Topology::ibm_guadalupe();
        let model = VqcModel::paper_model(topo.n_qubits(), 4, 16, 1);
        let dataset = Dataset::mnist4(32, SAMPLES, seed);
        let history = FluctuatingHistory::generate(
            &topo,
            &HistoryConfig::guadalupe_like(DAYS, DEFAULT_SEED),
            0,
        );
        let weights = model.init_weights(seed);
        let noise = NoiseOptions {
            scale: 3.0,
            backend: SimBackend::Trajectory,
            trajectories: TRAJECTORIES,
            ..NoiseOptions::with_shots(1024, seed)
        };
        let exec = NoisyExecutor::new(&model, &topo, noise);
        let eval_set = dataset.test[..dataset.test.len().min(SAMPLES)].to_vec();
        Scenario {
            history,
            eval_set,
            weights,
            exec,
        }
    }

    fn trajectories_per_pass(&self) -> u64 {
        u64::from(TRAJECTORIES) * self.eval_set.len() as u64 * self.history.online().len() as u64
    }

    /// One evaluation pass: accuracy per day, and its wall time in s.
    fn pass(&self, threads: usize) -> (Vec<f64>, f64) {
        let days: Vec<_> = self.history.online().iter().collect();
        let t = Stamp::now();
        let series =
            parallel::accuracy_over_days(&self.exec, &days, &self.eval_set, &self.weights, threads);
        (series, t.elapsed().as_secs_f64())
    }

    /// On one sample, the panel estimate must equal the per-trajectory
    /// oracle bit for bit.
    fn panel_matches_oracle(&self, seed: u64) -> bool {
        let (measured, program) = self.exec.compile_program(
            &self.eval_set[0].features,
            &self.weights,
            &self.history.online()[0],
        );
        let width = panel_width_from_env(program.n_qubits(), ORACLE_TRAJECTORIES);
        let panel = estimate_prob_one_panel(
            &mut TrajectoryPanel::new(),
            &program,
            &measured,
            ORACLE_TRAJECTORIES,
            seed,
            width,
        );
        let oracle = estimate_prob_one(
            &mut TrajectoryWorkspace::new(),
            &program,
            &measured,
            ORACLE_TRAJECTORIES,
            seed,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&panel.p_one) == bits(&oracle.p_one) && bits(&panel.std_err) == bits(&oracle.std_err)
    }
}

/// Set-up (history plus executor build), timed `SETUP_REPEATS` times;
/// returns the fastest.
fn timed_setup(seed: u64) -> (Scenario, f64) {
    let mut times = Vec::new();
    let mut scenario = None;
    for _ in 0..SETUP_REPEATS {
        let t = Stamp::now();
        scenario = Some(Scenario::build(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (scenario.expect("at least one set-up"), min(&times))
}

/// The untraced wide part, one evaluation pass per round.
pub struct Wide {
    seed: u64,
    scenario: Scenario,
    first: Option<Vec<f64>>,
    rates: Vec<f64>,
}

impl Wide {
    /// Set-up: builds the scenario `SETUP_REPEATS` times and returns the
    /// fastest time.
    pub fn setup(seed: u64) -> (Self, f64) {
        let (scenario, setup_s) = timed_setup(seed);
        let part = Wide {
            seed,
            scenario,
            first: None,
            rates: Vec::new(),
        };
        (part, setup_s)
    }

    /// One evaluation pass; it must reproduce the first pass.
    pub fn round(&mut self, checks: &mut Checks) {
        let (series, secs) = self.scenario.pass(parallel::worker_threads());
        let rate = self.scenario.trajectories_per_pass() as f64 / secs;
        eprintln!("[wide] pass: {rate:.3} traj/s");
        self.rates.push(rate);
        check_pass(&series, &mut self.first, checks);
    }

    /// The fastest pass (host noise only slows a pass down), after the
    /// panel-versus-oracle check.
    pub fn finish(self, checks: &mut Checks, out: &mut Metrics) {
        checks.op(
            self.scenario.panel_matches_oracle(self.seed),
            "wide: panel estimate equals the per-trajectory oracle",
        );
        out.set("traj_per_s", max(&self.rates));
    }
}

/// Each pass must reproduce the first; one pass is one checked operation.
fn check_pass(series: &[f64], first: &mut Option<Vec<f64>>, checks: &mut Checks) {
    let valid = series.len() == DAYS && series.iter().all(|a| (0.0..=1.0).contains(a));
    let same = first.as_ref().is_none_or(|f| f == series);
    checks.op(valid && same, "wide: pass reproduces the first");
    if first.is_none() {
        *first = Some(series.to_vec());
    }
}

/// Traced run: an untraced and a traced pass (tracing overhead), then the
/// panel, compile and parallel-efficiency unit costs.
pub fn run_traced(seed: u64, tracer: &mut Tracer, checks: &mut Checks, out: &mut Metrics) {
    let scenario = tracer.span("bench.wide.setup", |_| Scenario::build(seed));
    let threads = parallel::worker_threads();
    let mut first = None;
    let (series, untraced_s) = scenario.pass(threads);
    check_pass(&series, &mut first, checks);
    let (series, traced_s) = tracer.span("qnn.executor.accuracy_over_days", |_| {
        scenario.pass(threads)
    });
    check_pass(&series, &mut first, checks);
    out.set("bench.trace_overhead_wide", traced_s / untraced_s - 1.0);
    checks.op(
        scenario.panel_matches_oracle(seed),
        "wide: panel estimate equals the per-trajectory oracle",
    );

    let features = &scenario.eval_set[0].features;
    let day = &scenario.history.online()[0];
    let (measured, program) = scenario
        .exec
        .compile_program(features, &scenario.weights, day);
    let width = panel_width_from_env(program.n_qubits(), TRAJECTORIES);
    let mut panel = TrajectoryPanel::new();
    let panel_s: Vec<f64> = (0..3)
        .map(|rep| {
            tracer.span("quasim.trajectory.panel", |_| {
                let t = Stamp::now();
                black_box(estimate_prob_one_panel(
                    &mut panel,
                    &program,
                    &measured,
                    TRAJECTORIES,
                    seed ^ rep,
                    width,
                ));
                t.elapsed().as_secs_f64()
            })
        })
        .collect();
    out.set("quasim.trajectory.panel_ms", median(&panel_s) * 1e3);
    out.set("quasim.trajectory.panel_width", width as f64);
    // Computed, not measured: `width` columns of 2^n amplitudes held as
    // split f64 real/imaginary planes.
    let n = i32::try_from(program.n_qubits()).expect("small register");
    out.set(
        "quasim.trajectory.state_bytes",
        width as f64 * 2f64.powi(n) * 16.0,
    );
    let compile_s: Vec<f64> = (0..5)
        .map(|_| {
            let t = Stamp::now();
            black_box(
                scenario
                    .exec
                    .compile_program(features, &scenario.weights, day),
            );
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set(
        "qnn.executor.compile_program_16q_ms",
        median(&compile_s) * 1e3,
    );

    // Parallel efficiency on one day's samples (fewer days than threads,
    // so `accuracy_over_days` fans the samples out).
    let one_day = [day];
    let time = |threads: usize| {
        let t = Stamp::now();
        black_box(parallel::accuracy_over_days(
            &scenario.exec,
            &one_day,
            &scenario.eval_set,
            &scenario.weights,
            threads,
        ));
        t.elapsed().as_secs_f64()
    };
    let (t1, t2) = tracer.span("bench.wide.parallel_eff", |_| (time(1), time(2)));
    out.set("qnn.executor.parallel_eff_wide", t1 / (2.0 * t2));
}
