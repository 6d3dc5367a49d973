//! End-to-end benchmark of the QuCAD workspace.
//!
//! Every run measures the three waits a user of this system sees, each
//! through the public APIs of the crates that do the work:
//!
//! - the Table I pipeline (`table1`): six methods × three tasks at
//!   `Scale::Quick` — `qucad_bench`, `qucad::framework`, the density engine;
//! - serving (`serve`): a separate `qucad-serve` process driven open loop;
//! - the 16-qubit trajectory sweep (`wide`): `quasim::trajectory` panels.
//!
//! Every part runs on the pinned two worker threads (two serving
//! workers). The workload chooses the trajectory panel kernels: the
//! host's dispatch (`threads2`, AVX2 where the host has it) or the
//! portable scalar kernels (`scalar`). With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it records spans around its calls
//! into each layer and reports the per-layer metrics instead.
//!
//! Usage: `e2ebench --workload threads2|scalar [--seed N] [--seconds S]
//! [--trace 0|1]`. The last line of standard output is the JSON result.

mod clock;
mod openloop;
mod report;
mod serve;
mod stats;
mod table1;
mod trace;
mod wide;

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

use clock::Stamp;
use report::{result_line, Checks, Metrics, END_TO_END, PER_LAYER};
use stats::median;
use trace::{check_additivity, Tracer};

/// Set-up repeats of each part before the first round (the Table I part
/// repeats its set-up once more in every round); the fastest set-up of
/// each part counts towards `setup_s`, since other load on the host only
/// ever slows a set-up down.
pub const SETUP_REPEATS: usize = 3;

/// Rounds every untraced run makes, however short `--seconds` is; more
/// follow while the run is younger than `--seconds`.
const MIN_ROUNDS: usize = 2;

/// Worker threads of every part, and workers of the server.
const THREADS: usize = 2;

/// One workload: whether the trajectory panels run the portable scalar
/// kernels instead of the host's dispatch.
struct Workload {
    name: &'static str,
    scalar_kernels: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "threads2",
        scalar_kernels: false,
    },
    Workload {
        name: "scalar",
        scalar_kernels: true,
    },
];

struct Args {
    workload: &'static Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next())
                .ok_or_else(|| format!("{key} needs a value"))
        };
        match key.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed".to_string())?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required (threads2 or scalar)")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pins every environment knob the measured code reads: no ambient
/// `QUCAD_*` variable (backend, panel width, scalar kernels, scale,
/// serve knobs) survives, the thread count is `THREADS`, and the scalar
/// panel kernels are forced when the workload asks for them. Runs before
/// any thread is started.
fn pin_environment(scalar_kernels: bool) {
    for (key, _) in std::env::vars() {
        if key.starts_with("QUCAD_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("QUCAD_THREADS", THREADS.to_string());
    if scalar_kernels {
        std::env::set_var("QUCAD_FORCE_SCALAR", "1");
    }
}

/// Host facts every result depends on.
fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "nproc={nproc} avx2={} fma={} panel_kernels={:?} rustc=\"{rustc}\"",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
        quasim::trajectory::KernelMode::detect(),
    )
}

/// Median seconds per call of `f`, over seven batches of about 5 ms.
pub fn time_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut iters = 1u32;
    loop {
        let t = Stamp::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t.elapsed() >= Duration::from_millis(5) || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let per_call: Vec<f64> = (0..7)
        .map(|_| {
            let t = Stamp::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / f64::from(iters)
        })
        .collect();
    median(&per_call)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    pin_environment(args.workload.scalar_kernels);
    eprintln!(
        "[e2ebench] workload={} seed={:?} seconds={} trace={} host: {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_stamp()
    );
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> std::io::Result<String> {
    let serve_bin = std::env::current_exe()?.with_file_name("qucad-serve");
    let seed = |default: u64| args.seed.unwrap_or(default);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();

    if args.trace {
        let mut tracer = Tracer::new(true);
        tracer.span("bench.table1", |t| {
            table1::run_traced(seed(table1::DEFAULT_SEED), t, &mut checks, &mut metrics);
        });
        tracer.span("bench.serve", |t| {
            serve::run_traced(
                &serve_bin,
                seed(serve::DEFAULT_SEED),
                t,
                &mut checks,
                &mut metrics,
            )
        })?;
        tracer.span("bench.wide", |t| {
            wide::run_traced(seed(wide::DEFAULT_SEED), t, &mut checks, &mut metrics);
        });
        let additive = check_additivity(tracer.spans());
        if let Err(e) = &additive {
            eprintln!("{e}");
        }
        checks.op(additive.is_ok(), "trace: children plus residual add up");
        write_trace(&tracer, args);
        print_table(PER_LAYER, &metrics);
        return Ok(result_line(PER_LAYER, &metrics, &checks));
    }

    // Set-up of every part, then rounds. A round is one Table I sweep,
    // one serving block and one wide pass, so that a slow stretch of the
    // host lands in one round of every part rather than in all of one
    // part. Every metric keeps the fastest observation: of each part's
    // set-ups (Table I sets up once more per round), of each `run_method`
    // call over the rounds, of the wide passes, and the lowest p50 of a
    // serving window.
    let mut t1 = table1::Table1::setup(seed(table1::DEFAULT_SEED), &mut checks);
    let (mut sv, sv_setup) =
        serve::ServeBench::setup(&serve_bin, seed(serve::DEFAULT_SEED), &mut checks)?;
    let (mut wd, wd_setup) = wide::Wide::setup(seed(wide::DEFAULT_SEED));
    eprintln!(
        "[e2ebench] fastest set-ups: table1 {:.4} s, serve {sv_setup:.4} s, \
         wide {wd_setup:.4} s",
        t1.setup_s()
    );
    let budget = Duration::from_secs(args.seconds);
    let start = Stamp::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        let t = Stamp::now();
        t1.round(round, &mut checks);
        let t_serve = Stamp::now();
        sv.round()?;
        let t_wide = Stamp::now();
        wd.round(&mut checks);
        eprintln!(
            "[e2ebench] round {round}: table1 {:.1} s, serve {:.1} s, wide {:.1} s",
            (t_serve - t).as_secs_f64(),
            (t_wide - t_serve).as_secs_f64(),
            t_wide.elapsed().as_secs_f64()
        );
        round += 1;
    }
    let t1_setup = t1.setup_s();
    t1.finish(&mut checks, &mut metrics);
    sv.finish(&mut checks, &mut metrics);
    wd.finish(&mut checks, &mut metrics);
    metrics.set("setup_s", t1_setup + sv_setup + wd_setup);
    print_table(END_TO_END, &metrics);
    Ok(result_line(END_TO_END, &metrics, &checks))
}

fn print_table(catalogue: &[report::Spec], metrics: &Metrics) {
    for (name, unit) in catalogue {
        println!(
            "{name:<48} {:>16.6} {unit}",
            metrics.get(name).unwrap_or(f64::NAN)
        );
    }
}

/// Writes the spans as Chrome trace-event JSON under the benchmark's
/// `out/` directory.
fn write_trace(tracer: &Tracer, args: &Args) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name,
        args.seed
            .map_or_else(|| "default".to_string(), |s| s.to_string())
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.chrome_json())) {
        Ok(()) => eprintln!("[e2ebench] spans written to {}", path.display()),
        Err(e) => eprintln!(
            "[e2ebench] could not write spans to {}: {e}",
            path.display()
        ),
    }
}
