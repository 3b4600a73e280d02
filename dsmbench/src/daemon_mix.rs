//! `daemon_mix`: a closed loop of [`CLIENTS`] connections against an
//! in-process `dsm_daemon::serve` with two workers — callers of `dsmd`
//! wait for their reply, so the loop is closed. 90 % of the `run`
//! requests hit the program cache, spread over three hot programs
//! (1 KB, 8 KB and 60 KB bodies; P = 8 and P = 16, so two pool shelves
//! are live); 10 % are first-seen 8-routine programs (miss → compile →
//! insert). Socket, `proto` decode/encode, cache key hash, queue
//! hand-off and pool restore do most of the work; the simulation is a
//! 16 × 16 kernel.
//!
//! Every reply must be `ok:true` and its report digest must equal the
//! digest of a local `CompiledProgram::run` of the same source, spec and
//! options, computed in set-up.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use dsm_core::{compile_source, ExecOptions, OptConfig};
use dsm_daemon::cache::CacheKey;
use dsm_daemon::{serve, DaemonConfig, DaemonHandle, MachinePool, ProgramCache};
use dsm_proto::{
    digest_from_report_value, parse, parse_request, run_request_json, MachineSpec, Request, Value,
    CODE_DEADLINE, CODE_OVERLOADED,
};

use crate::gen::{hot_program, miss_program, Rng, Sources};
use crate::sim::MACHINE_SCALE;
use crate::stats::{median, tail, SLICES};
use crate::trace::{Lap, Summary, Tracer};
use crate::{Measured, Run, Scale};

/// Client connections (≤ the reference host's two cores).
pub const CLIENTS: usize = 2;

/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// Hot body sizes and the processor count each runs on.
pub const HOT: [(usize, usize); 3] = [(1 << 10, 8), (8 << 10, 16), (60 << 10, 8)];

/// Index into [`HOT`] of the 60 KB body.
pub const HOT_60K: usize = 2;

/// One in `MISS_ONE_IN` requests is a first-seen program.
const MISS_ONE_IN: usize = 10;

/// A program the daemon is asked to run, and what it must answer.
pub struct Program {
    /// The request's sources.
    pub sources: Sources,
    /// The request's machine.
    pub spec: MachineSpec,
    /// The request's `options` object.
    pub options_json: String,
    /// `RunReport::digest_json` of a local run.
    pub digest: String,
}

impl Program {
    /// Wrap `sources` for `nprocs` processors and run them locally for
    /// the reference digest.
    pub fn new(sources: Sources, nprocs: usize) -> Program {
        let spec = MachineSpec::origin2000(nprocs, MACHINE_SCALE, false);
        let opts = ExecOptions::new(nprocs).serial_team(true);
        let digest = compile_source(&sources, &OptConfig::default())
            .and_then(|p| p.run(&spec.to_config(), &opts))
            .expect("benchmark program compiles and runs locally")
            .report
            .digest_json();
        Program {
            sources,
            spec,
            options_json: opts.to_json(),
            digest,
        }
    }

    /// The `run` request line.
    pub fn request(&self) -> String {
        let opt = OptConfig::default();
        run_request_json(
            &self.sources,
            &opt,
            &self.spec,
            &self.options_json,
            0,
            None,
            false,
        )
    }
}

/// The three hot programs of `rng`'s seed, in [`HOT`] order.
pub fn hot_programs(rng: &mut Rng) -> Vec<Program> {
    HOT.iter()
        .map(|&(bytes, nprocs)| Program::new(hot_program(rng, bytes), nprocs))
        .collect()
}

/// Which program a request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    Hot(usize),
    Miss(usize),
}

/// A daemon that shuts down and is joined when dropped.
pub struct Daemon(Option<DaemonHandle>);

impl Daemon {
    /// Serve on a fresh socket under [`crate::run_dir`].
    pub fn start() -> Daemon {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let socket = crate::run_dir().join(format!("dsmbench-{}-{n}.sock", std::process::id()));
        let cfg = DaemonConfig {
            socket,
            workers: WORKERS,
            queue: 64,
        };
        Daemon(Some(serve(&cfg).expect("daemon binds its socket")))
    }

    /// The running daemon.
    pub fn handle(&self) -> &DaemonHandle {
        self.0.as_ref().expect("daemon runs until dropped")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// One connection: a request line out, a reply line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connect to the daemon's socket.
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Send `line`, read the reply line.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }
}

/// How a reply compared with what was expected.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `ok:true` and the expected digest.
    Correct,
    /// `daemon.overloaded` or `daemon.deadline`.
    Refused,
    /// Any other error reply, a malformed one, or a wrong digest.
    Wrong,
}

/// Check a parsed reply against the expected digest.
pub fn verdict(reply: &Value, expect_digest: &str) -> Verdict {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return match reply.get("code").and_then(Value::as_str) {
            Some(CODE_OVERLOADED | CODE_DEADLINE) => Verdict::Refused,
            _ => Verdict::Wrong,
        };
    }
    let digest = reply
        .get("outcome")
        .and_then(|o| o.get("report"))
        .and_then(|r| digest_from_report_value(r).ok());
    if digest.as_deref() == Some(expect_digest) {
        Verdict::Correct
    } else {
        Verdict::Wrong
    }
}

/// The benchmark's own cache and pool, on which a traced client replays
/// each request stage by stage through the public functions
/// `server::execute` is made of. The daemon's own stages cannot be
/// timed from outside; the replay measures the same work on the same
/// inputs in this process.
#[derive(Default)]
struct Replay {
    cache: ProgramCache,
    pool: MachinePool,
}

impl Replay {
    /// Busy time of each of the [`STAGES`] of `line`, nanoseconds.
    fn stages(&self, line: &str) -> Vec<(&'static str, u64)> {
        let mut parts = Vec::with_capacity(STAGES.len());
        let mut lap = Lap::start();
        let mut stage_ends = || parts.push((STAGES[parts.len()], lap.ns()));
        let Ok(Request::Run {
            sources,
            opt,
            machine,
            mut options,
            ..
        }) = parse_request(line)
        else {
            panic!("benchmark request is a run request");
        };
        options.nprocs = machine.procs;
        stage_ends(); // proto.parse_request
        std::hint::black_box(CacheKey::new(&sources, &opt));
        stage_ends(); // dsmd.cache.key
        let (program, _) = self
            .cache
            .get_or_compile(&sources, &opt)
            .expect("benchmark program compiles");
        stage_ends(); // dsmd.cache.get_or_compile
        let mut pooled = self.pool.acquire(&machine);
        stage_ends(); // dsmd.pool.acquire
        let outcome = program.run_on(&mut pooled.machine, &options);
        stage_ends(); // exec.run_on.request
        self.pool.release(pooled);
        stage_ends(); // dsmd.pool.release
        std::hint::black_box(outcome.map(|o| o.to_json()).ok());
        stage_ends(); // exec.outcome_json
        parts
    }
}

/// What `server::execute` does for a `run` request, in order; the names
/// of the spans a replay lays into the socket wait.
const STAGES: [&str; 7] = [
    "proto.parse_request",
    "dsmd.cache.key",
    "dsmd.cache.get_or_compile",
    "dsmd.pool.acquire",
    "exec.run_on.request",
    "dsmd.pool.release",
    "exec.outcome_json",
];

/// Everything the measured phase needs, built in set-up.
struct Plan {
    hot: Vec<Program>,
    miss: Vec<Program>,
    /// Request order; client `c` sends entries `c, c + CLIENTS, …`.
    order: Vec<Pick>,
    daemon: Daemon,
}

impl Plan {
    fn program(&self, pick: Pick) -> &Program {
        match pick {
            Pick::Hot(k) => &self.hot[k],
            Pick::Miss(k) => &self.miss[k],
        }
    }
}

/// See the module docs.
pub fn daemon_mix(seed: u64, scale: &Scale) -> Run {
    // A multiple of CLIENTS × SLICES, so every client slice is equal.
    let step = CLIENTS * SLICES;
    let requests = scale.count(30_000).div_ceil(step) * step;
    let plan = prepare(seed, requests);
    Box::new(move |tr| measure(tr, &plan))
}

fn prepare(seed: u64, requests: usize) -> Plan {
    let mut rng = Rng::new(seed, 6);
    let hot = hot_programs(&mut rng);
    let misses = requests / MISS_ONE_IN;
    let miss: Vec<Program> = (0..misses)
        .map(|_| Program::new(miss_program(&mut rng), 8))
        .collect();
    // Exact shares (a third of the hits to each hot body), seeded order:
    // the median request sits inside one body's latency mode, and a
    // drawn share would move it between modes from seed to seed.
    let mut order: Vec<Pick> = (0..misses).map(Pick::Miss).collect();
    order.extend((misses..requests).map(|k| Pick::Hot(k % HOT.len())));
    rng.shuffle(&mut order);

    // Warm the cache and both pool shelves from all clients at once, so
    // the measured phase starts in steady state.
    let daemon = Daemon::start();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut conn = Conn::connect(daemon.handle().socket()).expect("daemon accepts");
                for p in hot.iter().cycle().take(8 * hot.len()) {
                    let reply = conn.roundtrip(&p.request()).expect("daemon replies");
                    let reply = parse(reply.trim_end()).expect("reply parses");
                    assert!(
                        verdict(&reply, &p.digest) == Verdict::Correct,
                        "warm-up reply wrong"
                    );
                }
            });
        }
    });
    Plan {
        hot,
        miss,
        order,
        daemon,
    }
}

/// What one client observed.
struct ClientOut {
    /// `(latency ms, request index)` in send order.
    lat: Vec<(f64, usize)>,
    /// Wall seconds of each slice.
    slice_s: Vec<f64>,
    failed: u64,
    refused: u64,
    tracer: Tracer,
}

fn client(plan: &Plan, c: usize, replay: &Replay, mut tr: Tracer) -> ClientOut {
    let mine: Vec<usize> = (c..plan.order.len()).step_by(CLIENTS).collect();
    let mut lat = Vec::with_capacity(mine.len());
    let mut slice_s = Vec::with_capacity(SLICES);
    let (mut failed, mut refused) = (0, 0);
    for slice in mine.chunks(mine.len() / SLICES) {
        // A connection per slice: the daemon serves each connection on a
        // thread of its own, and where the host puts that thread moved a
        // whole run's latency by 9 % between identical runs. Reconnecting
        // turns it into slice-to-slice spread, which the medians absorb.
        let mut conn = Conn::connect(plan.daemon.handle().socket()).expect("daemon accepts");
        let slice_start = Instant::now();
        for &idx in slice {
            let program = plan.program(plan.order[idx]);
            // Replayed first and outside the request, then laid out
            // inside the socket wait it explains.
            let stages = if tr.on() {
                replay.stages(&program.request())
            } else {
                Vec::new()
            };
            let v = tr.op(idx as u64, "bench.request", |tr| {
                let start = Instant::now();
                let line = tr.span("proto.encode_request", |_| program.request());
                let reply = tr.span("dsmd.socket", |tr| {
                    let sent = tr.now_ns();
                    let reply = conn.roundtrip(&line);
                    let waited = tr.now_ns() - sent;
                    tr.lay_out(sent, &clip(&stages, waited));
                    reply
                });
                let reply = tr.span("proto.decode_reply", |_| {
                    reply.ok().and_then(|r| parse(r.trim_end()).ok())
                });
                lat.push((start.elapsed().as_secs_f64() * 1e3, idx));
                reply.map_or(Verdict::Wrong, |r| verdict(&r, &program.digest))
            });
            failed += u64::from(v != Verdict::Correct);
            refused += u64::from(v == Verdict::Refused);
        }
        slice_s.push(slice_start.elapsed().as_secs_f64());
    }
    ClientOut {
        lat,
        slice_s,
        failed,
        refused,
        tracer: tr,
    }
}

/// Truncate `stages` so their sum fits in `limit_ns`: a replay that ran
/// longer than the wait it explains (it shares two cores with the
/// daemon) must not outgrow its parent span.
fn clip(stages: &[(&'static str, u64)], limit_ns: u64) -> Vec<(&'static str, u64)> {
    let mut left = limit_ns;
    stages
        .iter()
        .map(|&(name, ns)| {
            let ns = ns.min(left);
            left -= ns;
            (name, ns)
        })
        .collect()
}

fn measure(tr: &mut Tracer, plan: &Plan) -> Measured {
    let state = plan.daemon.handle().state();
    let (cache0, pool0) = (state.cache.stats(), state.pool.stats());
    let replay = Replay::default();
    if tr.on() {
        for p in &plan.hot {
            replay.stages(&p.request());
        }
    }

    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (tracer, replay) = (tr.fork(), &replay);
                s.spawn(move || client(plan, c, replay, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread finishes"))
            .collect()
    });

    let mut m = Measured {
        attempted: plan.order.len() as u64,
        ..Measured::default()
    };
    // Merged slice by slice, so `stats::tail` cuts where the clients did.
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let per_slice = plan.order.len() / CLIENTS / SLICES;
    for slice in 0..SLICES {
        for out in &outs {
            for &(ms, idx) in &out.lat[slice * per_slice..(slice + 1) * per_slice] {
                m.lat_ms.push(ms);
                match plan.order[idx] {
                    Pick::Hot(_) => hit_ms.push(ms),
                    Pick::Miss(_) => miss_ms.push(ms),
                }
            }
        }
    }
    // Requests per second of each slice, over the clients.
    m.units_per_s = (0..SLICES)
        .map(|k| outs.iter().map(|o| per_slice as f64 / o.slice_s[k]).sum())
        .collect();
    let drift = m.units_per_s[SLICES - 1] / m.units_per_s[0];
    let mut refused = 0;
    for out in outs {
        m.failed += out.failed;
        refused += out.refused;
        tr.absorb(out.tracer);
    }
    m.tail_ms = tail(&m.lat_ms);

    let (cache1, pool1) = (state.cache.stats(), state.pool.stats());
    let layer = &mut m.layer;
    layer.insert("dsmd.hit.p50_ms", median(&hit_ms));
    layer.insert("dsmd.miss.p50_ms", median(&miss_ms));
    layer.insert("dsmd.drift_ratio", drift);
    layer.insert("dsmd.cache.hits", (cache1.hits - cache0.hits) as f64);
    layer.insert("dsmd.cache.misses", (cache1.misses - cache0.misses) as f64);
    layer.insert("dsmd.pool.created", pool1.created as f64);
    layer.insert("dsmd.pool.reused", (pool1.reused - pool0.reused) as f64);
    layer.insert("dsmd.queue.peak", state.sched.stats().peak as f64);
    layer.insert("dsmd.refused", refused as f64);
    if tr.on() {
        explain_socket_wait(layer, &Summary::of(tr.spans()), &plan.order);
    }
    m
}

/// From the traced requests: what is left of a hit's socket wait once
/// the replayed server-side stages are taken out (queue wait, thread
/// hand-off, socket, reply formatting), and how little of a 60 KB-body
/// hit is simulation.
fn explain_socket_wait(layer: &mut BTreeMap<&'static str, f64>, sum: &Summary, order: &[Pick]) {
    let of = |name: &str, op: u64| -> f64 {
        sum.op_ns
            .get(name)
            .and_then(|ops| ops.get(&op))
            .copied()
            .unwrap_or(0.0)
    };
    let mut handoff_us = Vec::new();
    let (mut exec_ns, mut request_ns) = (0.0, 0.0);
    for (idx, pick) in order.iter().enumerate() {
        let op = idx as u64;
        if let Pick::Hot(k) = pick {
            let staged: f64 = STAGES.iter().map(|s| of(s, op)).sum();
            handoff_us.push((of("dsmd.socket", op) - staged) / 1e3);
            if *k == HOT_60K {
                exec_ns += of("exec.run_on.request", op) + of("exec.outcome_json", op);
                request_ns += of("bench.request", op);
            }
        }
    }
    layer.insert("dsmd.handoff_us", median(&handoff_us));
    layer.insert("dsmd.hit60k.exec_share", exec_ns / request_ns.max(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_judged_against_the_local_digest() {
        let p = Program::new(miss_program(&mut Rng::new(1, 6)), 8);
        let daemon = Daemon::start();
        let mut conn = Conn::connect(daemon.handle().socket()).expect("connects");
        let reply = conn.roundtrip(&p.request()).expect("replies");
        let reply = parse(reply.trim_end()).expect("parses");
        assert_eq!(verdict(&reply, &p.digest), Verdict::Correct);
        // A corrupted reference digest makes the same reply count as failed.
        let corrupt = p
            .digest
            .replacen("\"total_cycles\":", "\"total_cycles\":9", 1);
        assert_eq!(verdict(&reply, &corrupt), Verdict::Wrong);

        let refused =
            parse(r#"{"ok":false,"code":"daemon.overloaded","error":"queue full"}"#).unwrap();
        assert_eq!(verdict(&refused, &p.digest), Verdict::Refused);
        let broken = parse(r#"{"ok":false,"code":"compile","error":"x"}"#).unwrap();
        assert_eq!(verdict(&broken, &p.digest), Verdict::Wrong);
    }

    #[test]
    fn quick_mix_is_correct_and_counts_hits_and_misses() {
        let plan = prepare(2, 200);
        let mut tr = Tracer::new(true, Instant::now());
        let m = measure(&mut tr, &plan);
        assert_eq!((m.attempted, m.failed), (200, 0));
        assert_eq!(m.lat_ms.len(), 200);
        assert_eq!(m.layer["dsmd.cache.misses"], 20.0);
        assert_eq!(m.layer["dsmd.cache.hits"], 180.0);
        assert_eq!(m.layer["dsmd.refused"], 0.0);
        assert!(m.layer["dsmd.handoff_us"] > 0.0);
        let share = m.layer["dsmd.hit60k.exec_share"];
        assert!(share > 0.0 && share < 1.0, "{share}");
        // Replayed stages sit inside the socket wait they explain.
        let spans = tr.spans();
        let stage = spans
            .iter()
            .position(|s| s.name == "exec.run_on.request")
            .expect("replayed");
        let parent = &spans[spans[stage].parent.expect("nested")];
        assert_eq!(parent.name, "dsmd.socket");
        assert!(spans[stage].end_ns <= parent.end_ns);
    }

    #[test]
    fn plans_repeat_for_a_seed_and_differ_between_seeds() {
        let order = |seed| prepare(seed, 40).order;
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
        assert_eq!(
            order(5)
                .iter()
                .filter(|p| matches!(p, Pick::Miss(_)))
                .count(),
            4
        );
    }

    #[test]
    fn clip_never_exceeds_the_wait() {
        let stages = [("a", 50), ("b", 70), ("c", 10)];
        assert_eq!(clip(&stages, 100), vec![("a", 50), ("b", 50), ("c", 0)]);
        assert_eq!(clip(&stages, 1000), stages.to_vec());
    }
}
