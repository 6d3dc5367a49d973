//! The Table I part: all six `Method::table1()` rows on the three Table I
//! tasks at `Scale::Quick` on `ibm_belem`, density backend — the wait of a
//! researcher reproducing the paper. Only this part makes ADMM
//! compression, base training, clustering and the repository do real
//! work, and it runs the density engine on large evaluation and training
//! batches.

use crate::clock::Stamp;
use std::hint::black_box;

use calibration::history::{FluctuatingHistory, HistoryConfig};
use calibration::snapshot::CalibrationSnapshot;
use qnn::data::Sample;
use qnn::executor::{parallel, NoisyExecutor, SimBackend};
use qnn::loss::{accuracy, predict};
use qnn::train::{train, Env, TrainConfig};
use quasim::density::SimWorkspace;
use qucad::admm::compress;
use qucad::cluster::{kmedians_weighted_l1, performance_weights};
use qucad::framework::{DayRecord, Method, MethodRun, Qucad};
use qucad::repository::{MatchOutcome, ModelRepository, RepositoryEntry};
use qucad_bench::{Experiment, Scale, Task};
use transpile::expand::ANGLE_TOL;
use transpile::template::CircuitTemplate;

use crate::report::{Checks, Metrics};
use crate::stats::{median, min};
use crate::trace::Tracer;
use crate::{time_per_call, SETUP_REPEATS};

/// Default seed, as `table1_main` uses.
pub const DEFAULT_SEED: u64 = 42;

/// Span name of one Table I method (`qucad.framework.method.<row>`).
fn method_span(m: Method) -> &'static str {
    match m {
        Method::Baseline => "qucad.framework.method.baseline",
        Method::NoiseAwareOnce => "qucad.framework.method.nat_once",
        Method::NoiseAwareEveryday => "qucad.framework.method.nat_everyday",
        Method::OneTimeCompression => "qucad.framework.method.onetime_compression",
        Method::QucadWithoutOffline => "qucad.framework.method.qucad_wo_offline",
        Method::Qucad => "qucad.framework.method.qucad",
        Method::CompressionEveryday => "qucad.framework.method.compression_everyday",
    }
}

/// The device's calibration history: `Experiment::prepare`'s recipe at
/// the default seed, whatever the run's seed. The history stands in for
/// the paper's one real calibration record of `ibm_belem`, and it decides
/// how many days full QuCAD must compress, so a history drawn per seed
/// would change the amount of work from seed to seed (up to 2x at Quick
/// scale) rather than the inputs' content.
fn device_history(exp: &Experiment) -> FluctuatingHistory {
    let (offline_days, online_days) = Scale::Quick.days();
    FluctuatingHistory::generate(
        &exp.topology,
        &HistoryConfig::belem_like(offline_days + online_days, DEFAULT_SEED ^ 0xACCE55),
        offline_days,
    )
}

/// The three prepared experiments: data, model and training from `seed`,
/// the device history fixed. `Scale::Quick` is passed explicitly and the
/// backend is overridden here, so no environment knob can change what is
/// measured.
fn prepare(seed: u64) -> Vec<Experiment> {
    Task::table1()
        .into_iter()
        .map(|task| {
            let mut exp = Experiment::prepare(task, Scale::Quick, seed);
            exp.noise.backend = SimBackend::Density;
            exp.history = device_history(&exp);
            exp
        })
        .collect()
}

/// One sweep: every method on every task. Returns the runs and the wall
/// time of each `run_method` call, in s.
fn sweep(exps: &[Experiment], tracer: &mut Tracer) -> (Vec<MethodRun>, Vec<f64>) {
    let mut runs = Vec::with_capacity(exps.len() * 6);
    let mut secs = Vec::with_capacity(exps.len() * 6);
    for exp in exps {
        for m in Method::table1() {
            let t = Stamp::now();
            runs.push(tracer.span(method_span(m), |_| exp.run(m)));
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    (runs, secs)
}

/// Summed seconds of the calls of full QuCAD.
fn qucad_secs(runs: &[MethodRun], secs: &[f64]) -> f64 {
    runs.iter()
        .zip(secs)
        .filter(|(r, _)| r.method == Method::Qucad)
        .map(|(_, s)| s)
        .sum()
}

fn sweep_is_valid(runs: &[MethodRun], online_days: usize) -> bool {
    runs.iter().all(|r| {
        r.records.len() == online_days
            && r.records
                .iter()
                .all(|d| d.accuracy.is_finite() && (0.0..=1.0).contains(&d.accuracy))
    })
}

/// Mean online accuracy of full QuCAD over the three tasks, in %.
fn qucad_accuracy(runs: &[MethodRun]) -> f64 {
    let per_task: Vec<f64> = runs
        .iter()
        .filter(|r| r.method == Method::Qucad)
        .map(|r| r.accuracies().iter().sum::<f64>() / r.records.len() as f64)
        .collect();
    100.0 * per_task.iter().sum::<f64>() / per_task.len() as f64
}

fn features_of(days: &[CalibrationSnapshot]) -> Vec<Vec<f64>> {
    days.iter()
        .map(CalibrationSnapshot::feature_vector)
        .collect()
}

/// The untraced Table I part, one set-up and one sweep per round on the
/// same inputs.
pub struct Table1 {
    seed: u64,
    exps: Vec<Experiment>,
    /// Wall time of every set-up (the three `Experiment::prepare` calls),
    /// in s.
    setups: Vec<f64>,
    first: Option<Vec<MethodRun>>,
    /// Fastest wall time seen for each `run_method` call, in s.
    best: Vec<f64>,
}

impl Table1 {
    /// Set-up: prepares the experiments `SETUP_REPEATS` times.
    pub fn setup(seed: u64, checks: &mut Checks) -> Self {
        let t = Stamp::now();
        let exps = prepare(seed);
        let mut part = Table1 {
            seed,
            exps,
            setups: vec![t.elapsed().as_secs_f64()],
            first: None,
            best: Vec::new(),
        };
        for _ in 1..SETUP_REPEATS {
            part.set_up_again(checks);
        }
        part
    }

    /// Times one more set-up, which must prepare bit-identical
    /// experiments; the result is dropped.
    fn set_up_again(&mut self, checks: &mut Checks) {
        let t = Stamp::now();
        let exps = prepare(self.seed);
        self.setups.push(t.elapsed().as_secs_f64());
        let same = self.exps.iter().zip(&exps).all(|(a, b)| {
            a.base_weights == b.base_weights
                && a.dataset.train == b.dataset.train
                && features_of(a.history.snapshots()) == features_of(b.history.snapshots())
        });
        checks.op(same, "table1: repeated prepare is bit-identical");
    }

    /// The fastest set-up so far, in s: other load on the host only ever
    /// slows a set-up down.
    pub fn setup_s(&self) -> f64 {
        min(&self.setups)
    }

    /// One set-up and one sweep. The set-up repeats here so that the
    /// set-ups `setup_s` takes the fastest of are spread over the run, as
    /// the sweeps are: a slow stretch of the host lasts longer than a
    /// few set-ups in a row. Each `run_method` call is one checked
    /// operation: the first sweep's output must be well formed, and every
    /// later sweep must reproduce it bit for bit.
    pub fn round(&mut self, round: usize, checks: &mut Checks) {
        self.set_up_again(checks);
        let (runs, secs) = sweep(&self.exps, &mut Tracer::new(false));
        let online_days = self.exps[0].history.online().len();
        check_sweep(&runs, online_days, &mut self.first, checks);
        eprintln!(
            "[table1] round {round}: table1_s {:.3}, qucad_s {:.3}",
            secs.iter().sum::<f64>(),
            qucad_secs(&runs, &secs)
        );
        if self.best.is_empty() {
            self.best = secs;
        } else {
            for (b, s) in self.best.iter_mut().zip(secs) {
                *b = b.min(s);
            }
        }
    }

    /// Sums of the fastest time of each call over the rounds: every round
    /// runs the same inputs, and other load on the host only ever slows a
    /// call down. Checks the first sweep against the unfused oracle.
    pub fn finish(self, checks: &mut Checks, out: &mut Metrics) {
        let runs = self.first.expect("at least one round");
        check_against_oracle(&self.exps, &runs, checks);
        out.set("table1_s", self.best.iter().sum());
        out.set("qucad_acc", qucad_accuracy(&runs));
        // Printed, not gated: the full-QuCAD share of the sweep spread
        // more across seeds than a bound allows (its work follows how
        // many days the repository misses).
        println!(
            "qucad_s (seed {}): {:.4} s",
            self.seed,
            qucad_secs(&runs, &self.best)
        );
    }
}

/// Every sweep must reproduce the first bit for bit; each of its
/// `run_method` calls is one checked operation.
fn check_sweep(
    runs: &[MethodRun],
    online_days: usize,
    first: &mut Option<Vec<MethodRun>>,
    checks: &mut Checks,
) {
    let valid = sweep_is_valid(runs, online_days);
    match first {
        None => {
            for _ in runs {
                checks.op(valid, "table1: run_method output well-formed");
            }
            *first = Some(runs.to_vec());
        }
        Some(f) => {
            for (a, b) in f.iter().zip(runs) {
                checks.op(valid && a == b, "table1: sweep reproduces the first");
            }
        }
    }
}

/// Recomputes each task's Baseline row with the unfused reference
/// executor (`z_scores_seeded_unfused`: every op and noise channel applied
/// one by one, no fusion, no program cache) on the streams `run_method`
/// evaluates with. On every online day, the sweep's executor must return
/// the oracle's z-scores and the row's accuracy must equal the oracle's,
/// bit for bit, so a sweep made faster by computing other numbers fails.
/// One checked operation per task and day.
fn check_against_oracle(exps: &[Experiment], runs: &[MethodRun], checks: &mut Checks) {
    let baselines = runs.iter().filter(|r| r.method == Method::Baseline);
    for (exp, run) in exps.iter().zip(baselines) {
        let ctx = exp.context();
        let exec = NoisyExecutor::new(ctx.model, ctx.topology, ctx.noise);
        let samples = &ctx.test_set[..ctx.config.eval_samples.min(ctx.test_set.len())];
        let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
        for (d, (snap, record)) in ctx.online.iter().zip(&run.records).enumerate() {
            let mut same_scores = true;
            let preds: Vec<usize> = samples
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let stream = parallel::eval_stream(d as u64, i as u64);
                    let want =
                        exec.z_scores_seeded_unfused(&s.features, ctx.base_weights, snap, stream);
                    let got = exec.z_scores_seeded(&s.features, ctx.base_weights, snap, stream);
                    same_scores &= want.len() == got.len()
                        && want
                            .iter()
                            .zip(&got)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    predict(&want)
                })
                .collect();
            checks.op(
                same_scores && accuracy(&preds, &labels).to_bits() == record.accuracy.to_bits(),
                "table1: Baseline day equals the unfused oracle",
            );
        }
    }
}

/// Traced run: one untraced and one traced sweep (for the tracing
/// overhead), the set-up and full-QuCAD replays, unit costs and parallel
/// efficiency.
pub fn run_traced(seed: u64, tracer: &mut Tracer, checks: &mut Checks, out: &mut Metrics) {
    let exps = tracer.span("bench.table1.setup", |t| prepare_replay(seed, t, checks));
    for name in ["qnn.data.build", "calibration.history", "qnn.train.base"] {
        out.set(&format!("{name}_ms"), tracer.total_ms(name));
    }
    let online_days = exps[0].history.online().len();
    let mut first = None;
    let (runs, untraced) = sweep(&exps, &mut Tracer::new(false));
    check_sweep(&runs, online_days, &mut first, checks);
    check_against_oracle(&exps, &runs, checks);
    let (runs, traced) = tracer.span("bench.table1.sweep", |t| sweep(&exps, t));
    check_sweep(&runs, online_days, &mut first, checks);
    out.set(
        "bench.trace_overhead_table1",
        traced.iter().sum::<f64>() / untraced.iter().sum::<f64>() - 1.0,
    );
    out.set("qucad.framework.qucad_acc", qucad_accuracy(&runs));
    for m in Method::table1() {
        let name = method_span(m);
        out.set(&format!("{name}_ms"), tracer.total_ms(name));
    }

    let mut counts = ReplayCounts::default();
    let replay_t0 = Stamp::now();
    for (exp, run) in exps
        .iter()
        .zip(runs.iter().filter(|r| r.method == Method::Qucad))
    {
        let (records, repo, threshold) = tracer.span("qucad.framework.replay", |t| {
            replay_qucad(exp, t, &mut counts)
        });
        let (api_repo, api_threshold) = qucad_api_repository(exp);
        checks.op(
            records == run.records && repo == api_repo && threshold == api_threshold,
            "table1: traced QuCAD replay equals run_method(Method::Qucad)",
        );
    }
    let replay_s = replay_t0.elapsed().as_secs_f64();
    for name in [
        "qnn.executor.profile",
        "qucad.cluster.kmedians",
        "qucad.admm.offline_compress",
        "qucad.admm.online_compress",
        "qnn.executor.daily_eval",
    ] {
        out.set(&format!("{name}_ms"), tracer.total_ms(name));
    }
    let matches = tracer.count("qucad.repository.match").max(1);
    out.set(
        "qucad.repository.match_us",
        tracer.total_ms("qucad.repository.match") * 1e3 / matches as f64,
    );
    out.set(
        "qucad.framework.residual_ms",
        tracer.self_ms("qucad.framework.replay"),
    );
    out.set("qucad.framework.days_reused", counts.reused as f64);
    out.set("qucad.framework.days_compressed", counts.compressed as f64);
    out.set("qucad.framework.days_failed", counts.failed as f64);
    out.set("qucad.admm.evals", counts.admm_evals as f64);
    out.set("qnn.executor.cache_hits", counts.cache_hits as f64);
    out.set("qnn.executor.cache_misses", counts.cache_misses as f64);
    out.set(
        "qnn.executor.cache_hit_rate",
        counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses).max(1) as f64,
    );
    out.set("qnn.executor.evals_per_s", counts.evals as f64 / replay_s);

    tracer.span("bench.table1.unit_costs", |_| unit_costs(&exps[0], out));
    tracer.span("bench.table1.parallel_eff", |_| parallel_eff(&exps[0], out));
}

/// Replays `Experiment::prepare` step by step through the public calls it
/// makes, with a span around each, and checks that the result equals
/// `Experiment::prepare` bit for bit.
fn prepare_replay(seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> Vec<Experiment> {
    let exps = prepare(seed);
    for exp in &exps {
        let dataset = tracer.span("qnn.data.build", |_| exp.task.dataset(Scale::Quick, seed));
        let history = tracer.span("calibration.history", |_| device_history(exp));
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 16,
            lr: 0.08,
            seed,
            grad_step: 1e-3,
        };
        let init = exp.model.init_weights(seed);
        let base = tracer.span("qnn.train.base", |_| {
            train(&exp.model, &dataset.train, Env::Pure, &cfg, &init).weights
        });
        checks.op(
            base == exp.base_weights
                && dataset.train == exp.dataset.train
                && features_of(history.snapshots()) == features_of(exp.history.snapshots()),
            "table1: prepare replay equals Experiment::prepare",
        );
    }
    exps
}

#[derive(Default)]
struct ReplayCounts {
    reused: u64,
    compressed: u64,
    failed: u64,
    admm_evals: u64,
    evals: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Full QuCAD replayed through the public functions
/// `Qucad::build_offline` and `Qucad::online_day` call, plus the per-day
/// evaluation `run_method` does, with a span around each layer call.
/// Returns the day records, the final repository and the Guidance-1
/// threshold.
fn replay_qucad(
    exp: &Experiment,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> (Vec<DayRecord>, ModelRepository, f64) {
    let ctx = exp.context();
    let config = ctx.config;
    let exec = NoisyExecutor::new(ctx.model, ctx.topology, ctx.noise);
    let threads = parallel::worker_threads();
    let stride = (ctx.offline.len() / config.max_offline_evals.max(1)).max(1);
    let sampled: Vec<&CalibrationSnapshot> = ctx.offline.iter().step_by(stride).collect();
    let eval_subset: Vec<Sample> = ctx
        .test_set
        .iter()
        .take(config.eval_samples)
        .cloned()
        .collect();
    let features: Vec<Vec<f64>> = sampled.iter().map(|s| s.feature_vector()).collect();
    let accuracies = tracer.span("qnn.executor.profile", |_| {
        parallel::accuracy_over_days(&exec, &sampled, &eval_subset, ctx.base_weights, threads)
    });
    counts.evals += (sampled.len() * eval_subset.len()) as u64;

    let (weights, clustering, threshold, cluster_acc) =
        tracer.span("qucad.cluster.kmedians", |_| {
            let weights = performance_weights(&features, &accuracies);
            let k = config.k.min(features.len());
            let clustering =
                kmedians_weighted_l1(&features, &weights, k, config.seed, config.cluster_iters);
            let mean_norm = features
                .iter()
                .map(|f| f.iter().map(|x| x.abs()).sum::<f64>())
                .sum::<f64>()
                / features.len().max(1) as f64;
            let threshold = (clustering.guidance_threshold(&features) * config.threshold_scale)
                .max(config.threshold_floor_frac * mean_norm);
            let cluster_acc = clustering.cluster_means(&accuracies);
            (weights, clustering, threshold, cluster_acc)
        });

    let mut repo = ModelRepository::new(weights, threshold, config.accuracy_requirement);
    for (g, centroid) in clustering.centroids.iter().enumerate() {
        let snap = CalibrationSnapshot::from_feature_vector(ctx.topology, 0, centroid);
        let out = tracer.span("qucad.admm.offline_compress", |_| {
            compress(
                ctx.model,
                &exec,
                ctx.train_set,
                &snap,
                &config.table,
                &config.admm,
                ctx.base_weights,
            )
        });
        counts.admm_evals += out.n_evals;
        repo.push(RepositoryEntry {
            centroid: centroid.clone(),
            weights: out.weights,
            mean_accuracy: Some(cluster_acc[g]),
            origin_day: sampled.first().map_or(0, |s| s.day),
        });
    }

    // `run_method` evaluates each day on an executor of its own.
    let eval_exec = NoisyExecutor::new(ctx.model, ctx.topology, ctx.noise);
    let mut records = Vec::with_capacity(ctx.online.len());
    for (day_index, snap) in ctx.online.iter().enumerate() {
        let outcome = tracer.span("qucad.repository.match", |_| repo.match_snapshot(snap));
        let (weights, train_evals, failure_reported) = match outcome {
            MatchOutcome::Hit { index, .. } => {
                counts.reused += 1;
                (repo.weights_of(index).to_vec(), 0, false)
            }
            MatchOutcome::Invalid { index, .. } => {
                counts.failed += 1;
                (repo.weights_of(index).to_vec(), 0, true)
            }
            MatchOutcome::Miss { .. } => {
                counts.compressed += 1;
                let out = tracer.span("qucad.admm.online_compress", |_| {
                    compress(
                        ctx.model,
                        &exec,
                        ctx.train_set,
                        snap,
                        &config.table,
                        &config.admm,
                        ctx.base_weights,
                    )
                });
                counts.admm_evals += out.n_evals;
                repo.push(RepositoryEntry {
                    centroid: snap.feature_vector(),
                    weights: out.weights.clone(),
                    mean_accuracy: None,
                    origin_day: snap.day,
                });
                (out.weights, out.n_evals, false)
            }
        };
        let accuracy = tracer.span("qnn.executor.daily_eval", |_| {
            parallel::batch_accuracy(
                &eval_exec,
                &eval_subset,
                &weights,
                snap,
                day_index as u64,
                threads,
            )
        });
        counts.evals += eval_subset.len() as u64;
        records.push(DayRecord {
            day: snap.day,
            accuracy,
            train_evals,
            failure_reported,
        });
    }
    counts.evals += counts.admm_evals;
    for stats in [exec.cache_stats(), eval_exec.cache_stats()] {
        counts.cache_hits += stats.hits;
        counts.cache_misses += stats.misses;
    }
    (records, repo, threshold)
}

/// The repository and threshold the real `Qucad` API ends with after the
/// online phase (untimed; the replay is checked against it).
fn qucad_api_repository(exp: &Experiment) -> (ModelRepository, f64) {
    let ctx = exp.context();
    let (mut qucad, stats) = Qucad::build_offline(
        ctx.model,
        ctx.topology,
        ctx.noise,
        ctx.offline,
        ctx.train_set,
        ctx.test_set,
        ctx.base_weights,
        ctx.config,
    );
    for snap in ctx.online {
        qucad.online_day(snap);
    }
    (qucad.repository().clone(), stats.threshold)
}

/// Unit costs of one evaluation of the MNIST-4 belem circuit.
fn unit_costs(exp: &Experiment, out: &mut Metrics) {
    let features = &exp.dataset.test[0].features;
    let weights = &exp.base_weights;
    let snap = &exp.history.online()[0];
    let full = exp.model.full_params(features, weights);
    let circuit = exp.model.circuit();
    out.set(
        "transpile.template.compile_us",
        time_per_call(|| CircuitTemplate::compile(circuit, &exp.topology, &full, ANGLE_TOL)) * 1e6,
    );
    let template = CircuitTemplate::compile(circuit, &exp.topology, &full, ANGLE_TOL);
    out.set(
        "transpile.template.bind_us",
        time_per_call(|| template.bind(&full)) * 1e6,
    );
    let exec = NoisyExecutor::new(&exp.model, &exp.topology, exp.noise);
    out.set(
        "qnn.executor.compile_program_us",
        time_per_call(|| exec.compile_program(features, weights, snap)) * 1e6,
    );
    let (_, program) = exec.compile_program(features, weights, snap);
    let mut ws = SimWorkspace::new();
    out.set(
        "quasim.density.run_us",
        time_per_call(|| {
            ws.reset_zero(program.n_qubits());
            ws.run(black_box(&program));
            ws.prob_one(0)
        }) * 1e6,
    );
    let mut stream = 0u64;
    out.set(
        "qnn.executor.z_scores_us",
        time_per_call(|| {
            stream += 1;
            exec.z_scores_seeded(features, weights, snap, stream)
        }) * 1e6,
    );
    let segments = program.segments().len();
    // Computed, not measured: every segment pass reads and writes the
    // whole 4^n-entry complex (16-byte) density matrix once.
    let rho_bytes = 16.0 * 4f64.powi(i32::try_from(program.n_qubits()).expect("small register"));
    out.set("quasim.density.segments", segments as f64);
    out.set(
        "quasim.density.bytes_moved",
        segments as f64 * 2.0 * rho_bytes,
    );
}

/// T(1 thread) / (2 × T(2 threads)) of the offline profiling grid's
/// `accuracy_over_days` on the MNIST-4 task.
fn parallel_eff(exp: &Experiment, out: &mut Metrics) {
    let ctx = exp.context();
    let exec = NoisyExecutor::new(ctx.model, ctx.topology, ctx.noise);
    let stride = (ctx.offline.len() / ctx.config.max_offline_evals.max(1)).max(1);
    let days: Vec<&CalibrationSnapshot> = ctx.offline.iter().step_by(stride).collect();
    let samples: Vec<Sample> = ctx
        .test_set
        .iter()
        .take(ctx.config.eval_samples)
        .cloned()
        .collect();
    let time = |threads: usize| {
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let t = Stamp::now();
                black_box(parallel::accuracy_over_days(
                    &exec,
                    &days,
                    &samples,
                    ctx.base_weights,
                    threads,
                ));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&reps)
    };
    let t1 = time(1);
    let t2 = time(2);
    out.set("qnn.executor.parallel_eff_table1", t1 / (2.0 * t2));
}
