//! The serving part: a separate `qucad-serve --device=belem` process,
//! driven open loop from one connection by two threads (this one sends on
//! a fixed schedule, a receiver thread collects answers). The request
//! recipe is `qucad_load`'s: three circuit structures spread over every
//! calibration day, from four logical clients. It runs at a `lo` rate
//! well below saturation and a higher `hi` rate that still sits below the
//! knee (batches of about one request); traced runs also climb a fixed
//! rate ladder up to the knee. Only this part exercises `serve::codec`,
//! the batch queue and cross-client batching.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use crate::clock::Stamp;

use qnn::executor::{parallel, ProbeBatch, ProgramCacheHandle};
use qucad_serve::codec::{
    decode_request, decode_response, encode_request, encode_response, read_frame, Request,
    Response, ServeStats,
};
use qucad_serve::scenario::ServeScenario;

use crate::openloop::{due_s, PhaseTimes};
use crate::report::{Checks, Metrics};
use crate::stats::{median, min, nearest_rank, p99_with_failures};
use crate::trace::Tracer;
use crate::{time_per_call, SETUP_REPEATS};

/// Default seed, as `qucad-serve` and `qucad_load` use.
pub const DEFAULT_SEED: u64 = 7;

const DEVICE: &str = "belem";
const DAYS: u64 = 8;
/// Logical clients of the `qucad_load` recipe, interleaved on one
/// connection (cross-client batching keys on the client id).
const CLIENTS: u64 = 4;
const MAX_BATCH: usize = 16;
const QUEUE_DEPTH: usize = 256;
/// Requests per measurement window and per ladder step: enough for a
/// p99 with ten samples beyond it.
const WINDOW_REQUESTS: usize = 1000;
/// The `lo` rate, req/s: well below saturation.
const LO_RATE: f64 = 2000.0;
/// The `hi` rate, req/s: the highest fixed rate at which the p50 stayed
/// steady on a shared 2-core host, below the knee.
const HI_RATE: f64 = 5000.0;
/// Latency limit the ladder's p99 must meet, ms.
const LIMIT_MS: f64 = 10.0;
/// Ladder rungs, req/s, 12% apart; a climb starts at the first, below
/// the knee.
const LADDER: &[f64] = &[
    4880.0, 5460.0, 6120.0, 6850.0, 7670.0, 8590.0, 9620.0, 10780.0, 12070.0, 13520.0, 15140.0,
    16960.0,
];
/// Measurement windows per round at the `lo` and at the `hi` rate.
const LO_WINDOWS: usize = 4;
const HI_WINDOWS: usize = 6;
/// How long the receiver waits for any one answer before counting the
/// rest of the phase as failed.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// The recipe request with global sequence number `k`.
fn recipe(n_weights: usize, k: u64) -> Request {
    let client = k % CLIENTS;
    let i = k / CLIENTS;
    let palette = (i % 3) as usize;
    Request::Eval {
        request_id: k,
        client_id: client,
        day: u32::try_from((client + i) % DAYS).expect("day fits u32"),
        stream: 7919 * client + i,
        features: vec![0.3 + 0.1 * client as f64, 0.8, 1.4, 2.1],
        weights: (0..n_weights)
            .map(|j| if j < 3 * palette { 0.0 } else { 0.9 })
            .collect(),
    }
}

/// Length-prefixed frame of one request, sent with a single write.
fn frame(req: &Request) -> Vec<u8> {
    let payload = encode_request(req);
    let len = u32::try_from(payload.len()).expect("small frame");
    let mut f = len.to_le_bytes().to_vec();
    f.extend_from_slice(&payload);
    f
}

/// A running `qucad-serve` child process. Dropping it kills and reaps the
/// process if it is still running.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &Path, seed: u64, workers: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args([
                "--port=0".to_string(),
                format!("--device={DEVICE}"),
                format!("--days={DAYS}"),
                format!("--seed={seed}"),
                format!("--workers={workers}"),
                format!("--max-batch={MAX_BATCH}"),
                format!("--queue-depth={QUEUE_DEPTH}"),
            ])
            // The backend is pinned, not inherited.
            .env("QUCAD_BACKEND", "density")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .strip_prefix("qucad-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected server banner: {line:?}"
            )));
        };
        Ok(Server {
            child,
            stdout,
            addr,
        })
    }

    /// Waits for the server to exit after a shutdown request (killing it
    /// if the request was not acknowledged); true when it acknowledged,
    /// exited with success and reported a clean exit.
    fn stop(mut self, acked: bool) -> bool {
        if !acked {
            let _ = self.child.kill();
        }
        let exited = self.child.wait().is_ok_and(|s| s.success());
        let mut rest = String::new();
        let clean = self.stdout.read_to_string(&mut rest).is_ok()
            && rest.contains("qucad-serve exited cleanly");
        acked && exited && clean
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request and its answer, before the generator owns the connection.
fn call(mut conn: &TcpStream, req: &Request) -> io::Result<Response> {
    conn.write_all(&frame(req))?;
    let payload = read_frame(&mut conn)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Served answers awaiting the bit-identity check.
#[derive(Default)]
struct Served {
    requests: Vec<Request>,
    answers: Vec<Option<Vec<f64>>>,
}

/// The open-loop load generator on one connection to the server: this
/// thread writes requests, a receiver thread timestamps every answer the
/// moment it is read and hands it over a channel.
struct Generator {
    conn: TcpStream,
    answers: mpsc::Receiver<(Stamp, Response)>,
    receiver: thread::JoinHandle<()>,
    n_weights: usize,
    next_k: u64,
    served: Served,
}

/// One open-loop phase's observations.
struct Phase {
    times: PhaseTimes,
    /// Span of each send, when traced.
    sends: Vec<(Stamp, Stamp)>,
    /// Server counters accumulated during the phase.
    batches: u64,
    requests: u64,
    cross_client: u64,
    peak: u32,
}

impl Generator {
    fn new(conn: TcpStream, n_weights: usize, next_k: u64, served: Served) -> io::Result<Self> {
        let mut reader = conn.try_clone()?;
        let (tx, answers) = mpsc::channel();
        let receiver = thread::Builder::new()
            .name("e2ebench-receiver".to_string())
            .spawn(move || {
                // Ends when the server closes the connection.
                while let Ok(Some(payload)) = read_frame(&mut reader) {
                    let at = Stamp::now();
                    let Ok(resp) = decode_response(&payload) else {
                        return;
                    };
                    if tx.send((at, resp)).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Generator {
            conn,
            answers,
            receiver,
            n_weights,
            next_k,
            served,
        })
    }

    fn next_answer(&self) -> io::Result<(Stamp, Response)> {
        self.answers
            .recv_timeout(RECV_TIMEOUT)
            .map_err(|e| io::Error::new(io::ErrorKind::TimedOut, e.to_string()))
    }

    /// One request and its answer, on a quiet connection.
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        (&self.conn).write_all(&frame(req))?;
        Ok(self.next_answer()?.1)
    }

    fn stats(&mut self) -> io::Result<ServeStats> {
        match self.call(&Request::Stats { request_id: 0 })? {
            Response::StatsReport { stats, .. } => Ok(stats),
            other => Err(io::Error::other(format!("expected stats, got {other:?}"))),
        }
    }

    /// Shuts the server down and joins the receiver; true when the
    /// server acknowledged.
    fn shutdown(mut self) -> (bool, Served) {
        let acked = matches!(
            self.call(&Request::Shutdown { request_id: 0 }),
            Ok(Response::ShuttingDown { .. })
        );
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        self.receiver.join().expect("receiver thread panicked");
        (acked, self.served)
    }

    /// Sends `n` recipe requests at `rate` req/s on schedule, then
    /// collects their answers.
    fn phase(&mut self, rate: f64, n: usize, traced: bool) -> io::Result<Phase> {
        let before = self.stats()?;
        let base = self.next_k;
        let requests: Vec<Request> = (0..n as u64)
            .map(|j| recipe(self.n_weights, base + j))
            .collect();
        let frames: Vec<Vec<u8>> = requests.iter().map(frame).collect();
        self.next_k += n as u64;
        let start = Stamp::now();
        let since = |t: Stamp| t.saturating_duration_since(start).as_secs_f64();
        let mut sent = Vec::with_capacity(n);
        let mut sends = Vec::new();
        for (j, f) in frames.iter().enumerate() {
            let due = start + Duration::from_secs_f64(due_s(j, rate));
            let now = Stamp::now();
            if due > now {
                thread::sleep(due - now);
            }
            let t = Stamp::now();
            if (&self.conn).write_all(f).is_err() {
                break;
            }
            sent.push(since(t));
            if traced {
                sends.push((t, Stamp::now()));
            }
        }
        let mut done = vec![None; n];
        let mut answers = vec![None; n];
        for _ in 0..sent.len() {
            let Ok((at, resp)) = self.next_answer() else {
                break;
            };
            if let Response::Scores { request_id, z } = resp {
                if let Some(idx) = request_id.checked_sub(base).map(|i| i as usize) {
                    if idx < n {
                        done[idx] = Some(since(at));
                        answers[idx] = Some(z);
                    }
                }
            }
        }
        let after = self.stats()?;
        let due: Vec<f64> = (0..n).map(|j| due_s(j, rate)).collect();
        // Unsent requests (a dead connection) count as failed.
        sent.resize(n, f64::MAX);
        self.served.requests.extend(requests);
        self.served.answers.extend(answers);
        Ok(Phase {
            times: PhaseTimes { due, sent, done },
            sends,
            batches: after.batches - before.batches,
            requests: after.requests - before.requests,
            cross_client: after.cross_client_batches - before.cross_client_batches,
            peak: after.peak_batch,
        })
    }

    /// `windows` back-to-back windows of `WINDOW_REQUESTS` at `rate`.
    fn windows(&mut self, rate: f64, windows: usize, traced: bool) -> io::Result<Vec<Phase>> {
        (0..windows)
            .map(|_| self.phase(rate, WINDOW_REQUESTS, traced))
            .collect()
    }

    /// Climbs `LADDER` once while each rung's p99 meets the limit without
    /// a growing backlog; returns the last passing rung, req/s (0 if the
    /// first rung fails).
    fn ladder(&mut self) -> io::Result<f64> {
        let mut passed = 0.0;
        for &rate in LADDER {
            let step = self.phase(rate, WINDOW_REQUESTS, false)?.times;
            if !step.meets(LIMIT_MS) {
                eprintln!(
                    "[serve] ladder: {rate} req/s failed (p99 {:?} ms, backlog growing: {})",
                    p99_with_failures(&step.latencies_ms(), step.failed()),
                    step.backlog_growing()
                );
                break;
            }
            passed = rate;
        }
        eprintln!("[serve] ladder: last passing rung {passed} req/s");
        Ok(passed)
    }
}

/// One fixed rate, pooled over its windows.
struct RateSummary {
    p50_ms: f64,
    /// The lowest p50 of a single window.
    best_window_p50_ms: f64,
    /// `None` when the windows hold too few requests for a p99.
    p99_ms: Option<f64>,
    lateness_ms: Vec<f64>,
    mean_batch: f64,
    cross_client_share: f64,
    peak: u32,
}

fn summarize(windows: &[Phase]) -> RateSummary {
    let latencies: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.times.latencies_ms())
        .collect();
    let failed: usize = windows.iter().map(|w| w.times.failed()).sum();
    let batches: u64 = windows.iter().map(|w| w.batches).sum();
    let requests: u64 = windows.iter().map(|w| w.requests).sum();
    let cross: u64 = windows.iter().map(|w| w.cross_client).sum();
    RateSummary {
        p50_ms: median(&latencies),
        best_window_p50_ms: min(&windows
            .iter()
            .map(|w| median(&w.times.latencies_ms()))
            .collect::<Vec<f64>>()),
        p99_ms: p99_with_failures(&latencies, failed),
        lateness_ms: windows.iter().flat_map(|w| w.times.lateness_ms()).collect(),
        mean_batch: requests as f64 / batches.max(1) as f64,
        cross_client_share: cross as f64 / batches.max(1) as f64,
        peak: windows.iter().map(|w| w.peak).max().unwrap_or(0),
    }
}

/// Checks every served answer against a direct `z_scores_seeded` call on
/// a locally rebuilt scenario, bit for bit, on two threads. Each request
/// is one checked operation; a missing answer fails.
fn verify(served: &Served, seed: u64, checks: &mut Checks) {
    let scenario = ServeScenario::build(DEVICE, DAYS as usize, seed);
    let n = served.requests.len();
    let chunk = n.div_ceil(2).max(1);
    let ok: Vec<bool> = thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let scenario = &scenario;
                s.spawn(move || {
                    let exec = scenario.executor(ProgramCacheHandle::new());
                    (start..(start + chunk).min(n))
                        .map(|i| {
                            let Request::Eval {
                                day,
                                stream,
                                features,
                                weights,
                                ..
                            } = &served.requests[i]
                            else {
                                return false;
                            };
                            let want = exec.z_scores_seeded(
                                features,
                                weights,
                                &scenario.snapshots[*day as usize],
                                *stream,
                            );
                            served.answers[i].as_ref().is_some_and(|z| {
                                z.len() == want.len()
                                    && z.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits())
                            })
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    let bad = ok.iter().filter(|o| !**o).count();
    for o in ok {
        checks.attempted += 1;
        checks.failed += u64::from(!o);
    }
    if bad > 0 {
        eprintln!("CHECK FAILED: serve: {bad} served answers differ from z_scores_seeded");
    }
}

/// Spawns the server and answers one request; returns the server, its
/// connection and the time from spawn to that first answer, in s.
fn spawn_and_probe(
    bin: &Path,
    seed: u64,
    served: &mut Served,
    next_k: &mut u64,
    n_weights: usize,
) -> io::Result<(Server, TcpStream, f64)> {
    let t = Stamp::now();
    let server = Server::spawn(bin, seed, parallel::worker_threads())?;
    let conn = TcpStream::connect(server.addr)?;
    conn.set_nodelay(true)?;
    let req = recipe(n_weights, *next_k);
    *next_k += 1;
    let resp = call(&conn, &req)?;
    let secs = t.elapsed().as_secs_f64();
    served.requests.push(req);
    served.answers.push(match resp {
        Response::Scores { z, .. } => Some(z),
        _ => None,
    });
    Ok((server, conn, secs))
}

fn n_weights(seed: u64) -> usize {
    ServeScenario::build(DEVICE, 1, seed).model.n_weights()
}

/// The untraced serving part: one server for the whole run, one block
/// of `lo` and `hi` windows per round.
pub struct ServeBench {
    seed: u64,
    server: Server,
    generator: Generator,
    /// Windows at `lo` and at `hi`, one list per round.
    lo: Vec<Vec<Phase>>,
    hi: Vec<Vec<Phase>>,
}

impl ServeBench {
    /// Set-up: spawn to first answer, `SETUP_REPEATS` times (all but the
    /// last server are shut down again); returns the fastest time.
    pub fn setup(bin: &Path, seed: u64, checks: &mut Checks) -> io::Result<(Self, f64)> {
        let n_weights = n_weights(seed);
        let mut served = Served::default();
        let mut next_k = 0;
        let mut setups = Vec::new();
        let mut kept = None;
        for rep in 0..SETUP_REPEATS {
            let (server, conn, secs) =
                spawn_and_probe(bin, seed, &mut served, &mut next_k, n_weights)?;
            setups.push(secs);
            if rep + 1 < SETUP_REPEATS {
                let acked = matches!(
                    call(&conn, &Request::Shutdown { request_id: 0 }),
                    Ok(Response::ShuttingDown { .. })
                );
                checks.op(server.stop(acked), "serve: server exits cleanly");
            } else {
                kept = Some((server, conn));
            }
        }
        let (server, conn) = kept.expect("at least one set-up");
        let part = ServeBench {
            seed,
            server,
            generator: Generator::new(conn, n_weights, next_k, served)?,
            lo: Vec::new(),
            hi: Vec::new(),
        };
        Ok((part, min(&setups)))
    }

    /// One block: `LO_WINDOWS` windows at `lo`, then `HI_WINDOWS` at `hi`.
    pub fn round(&mut self) -> io::Result<()> {
        self.lo
            .push(self.generator.windows(LO_RATE, LO_WINDOWS, false)?);
        self.hi
            .push(self.generator.windows(HI_RATE, HI_WINDOWS, false)?);
        Ok(())
    }

    /// Shuts the server down, checks every answer, and reports for each
    /// rate the lowest p50 of a window (other load on the host only ever
    /// makes a window slower).
    pub fn finish(self, checks: &mut Checks, out: &mut Metrics) {
        let (acked, served) = self.generator.shutdown();
        checks.op(self.server.stop(acked), "serve: server exits cleanly");
        verify(&served, self.seed, checks);
        for (name, rounds) in [("lo", &self.lo), ("hi", &self.hi)] {
            let summaries: Vec<RateSummary> = rounds.iter().map(|w| summarize(w)).collect();
            for (r, rate) in summaries.iter().enumerate() {
                checks.op(
                    rate.p99_ms.is_some(),
                    "serve: windows long enough for a p99",
                );
                eprintln!(
                    "[serve] {name} round {r}: p50 {:.3} ms, p99 {:?} ms, late p99 {:.3} ms, \
                     mean batch {:.2}",
                    rate.p50_ms,
                    rate.p99_ms,
                    nearest_rank(&rate.lateness_ms, 990),
                    rate.mean_batch
                );
            }
            let p50s: Vec<f64> = summaries.iter().map(|r| r.best_window_p50_ms).collect();
            out.set(&format!("serve_{name}_p50_ms"), min(&p50s));
        }
    }
}

/// Traced run: `lo` untraced and traced (tracing overhead), `hi`, the
/// ladder, the batch counters per rate, codec and execute unit costs, and
/// the residual of the `lo` p50 they leave unexplained.
pub fn run_traced(
    bin: &Path,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Metrics,
) -> io::Result<()> {
    const WINDOWS: usize = 2;
    let n_weights = n_weights(seed);
    let mut served = Served::default();
    let mut next_k = 0;
    let (server, conn, _) = tracer.span("bench.serve.setup", |_| {
        spawn_and_probe(bin, seed, &mut served, &mut next_k, n_weights)
    })?;
    let mut generator = Generator::new(conn, n_weights, next_k, served)?;
    let untraced = summarize(&generator.windows(LO_RATE, WINDOWS, false)?);
    let lo = tracer.span("bench.serve.lo", |t| {
        let windows = generator.windows(LO_RATE, WINDOWS, true)?;
        for &(a, b) in windows.iter().flat_map(|w| &w.sends) {
            t.record("serve.client.send", a, b);
        }
        io::Result::Ok(summarize(&windows))
    })?;
    let hi = tracer.span("bench.serve.hi", |_| {
        io::Result::Ok(summarize(&generator.windows(HI_RATE, WINDOWS, false)?))
    })?;
    let max_rps = tracer.span("bench.serve.ladder", |_| generator.ladder())?;
    out.set("serve.max_rps", max_rps);
    let (acked, served) = generator.shutdown();
    checks.op(server.stop(acked), "serve: server exits cleanly");
    verify(&served, seed, checks);

    out.set(
        "bench.trace_overhead_serve",
        lo.p50_ms / untraced.p50_ms - 1.0,
    );
    for (name, rate) in [("lo", &lo), ("hi", &hi)] {
        out.set(
            &format!("serve.{name}_p99_ms"),
            rate.p99_ms.unwrap_or(f64::NAN),
        );
        out.set(&format!("serve.batch.mean_size_{name}"), rate.mean_batch);
        out.set(
            &format!("serve.batch.cross_client_share_{name}"),
            rate.cross_client_share,
        );
        // The server's peak is a running maximum since start.
        out.set(&format!("serve.batch.peak_{name}"), f64::from(rate.peak));
    }
    let mut late = lo.lateness_ms.clone();
    late.extend_from_slice(&hi.lateness_ms);
    out.set("serve.gen.late_p99_ms", nearest_rank(&late, 990));

    let (req_us, resp_us) = tracer.span("bench.serve.codec", |_| codec_us(&served));
    out.set("serve.codec.request_us", req_us);
    out.set("serve.codec.response_us", resp_us);
    let scenario = ServeScenario::build(DEVICE, DAYS as usize, seed);
    let per_request_us =
        |size: f64| probes_us(&scenario, n_weights, size.round().max(1.0) as usize);
    let b1 = per_request_us(1.0);
    let bmean = per_request_us(hi.mean_batch);
    let lo_exec = per_request_us(lo.mean_batch);
    out.set("qnn.executor.evaluate_probes_us_b1", b1);
    out.set("qnn.executor.evaluate_probes_us_bmean", bmean);
    out.set(
        "serve.residual_p50_ms",
        lo.p50_ms - (req_us + resp_us + lo_exec) / 1e3,
    );
    Ok(())
}

/// Encode plus decode time per message, in µs, over the mix's request
/// bodies and the answers they got.
fn codec_us(served: &Served) -> (f64, f64) {
    let reqs: Vec<&Request> = served.requests.iter().take(12).collect();
    let resps: Vec<Response> = served
        .answers
        .iter()
        .take(12)
        .enumerate()
        .map(|(i, z)| Response::Scores {
            request_id: i as u64,
            z: z.clone().unwrap_or_default(),
        })
        .collect();
    let req = time_per_call(|| {
        for r in &reqs {
            decode_request(&encode_request(r)).expect("request round trip");
        }
    }) * 1e6
        / reqs.len() as f64;
    let resp = time_per_call(|| {
        for r in &resps {
            decode_response(&encode_response(r)).expect("response round trip");
        }
    }) * 1e6
        / resps.len() as f64;
    (req, resp)
}

/// `evaluate_probes` time per request, in µs, for one batch of `size`
/// requests of one (day, structure) group — what a serving worker runs.
fn probes_us(scenario: &ServeScenario, n_weights: usize, size: usize) -> f64 {
    let exec = scenario.executor(ProgramCacheHandle::new());
    let weights = vec![0.9; n_weights];
    let features: Vec<Vec<f64>> = (0..size as u64)
        .map(|c| vec![0.3 + 0.1 * (c % CLIENTS) as f64, 0.8, 1.4, 2.1])
        .collect();
    let mut batch = ProbeBatch::with_capacity(size);
    for (i, f) in features.iter().enumerate() {
        batch.push(f, &weights, i as u64);
    }
    time_per_call(|| exec.evaluate_probes(&scenario.snapshots[0], &batch, 1)) * 1e6 / size as f64
}
