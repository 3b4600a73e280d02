//! End-to-end daemon tests: an in-process `dsmd` serving a real Unix
//! socket, exercised through the same wire protocol external clients
//! use. The load-bearing assertion throughout: a remote run's report is
//! *bit-identical* to a local `CompiledProgram::run` — including under
//! migration, sampling, profiling and captures, on both engines, and on
//! pooled (snapshot-restored) machines.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use dsm_core::{
    compile_source, Engine, ExecOptions, MigrationPolicy, OptConfig, SamplingConfig,
};
use dsm_daemon::{serve, DaemonConfig, DaemonHandle, MachinePool, ProgramCache};
use dsm_proto::{
    advise_request_json, compile_request_json, digest_from_report_value, outcome_from_value, parse,
    run_request_json, MachineSpec, Value,
};

const PROGRAM: &str = "      program main
      integer i, j
      real*8 a(32,32), b(32,32)
c$distribute_reshape a(*,block)
c$distribute_reshape b(*,block)
c$doacross local(i,j) affinity(j) = data(a(1,j))
      do j = 1, 32
        do i = 1, 32
          a(i,j) = i + 2*j
        enddo
      enddo
c$doacross local(i,j) affinity(j) = data(b(1,j))
      do j = 1, 32
        do i = 1, 32
          b(i,j) = a(i,j) * 0.5d0 + 1.0d0
        enddo
      enddo
      end
";

fn sources() -> Vec<(String, String)> {
    vec![("t.f".to_string(), PROGRAM.to_string())]
}

fn spec() -> MachineSpec {
    MachineSpec {
        procs: 4,
        scale: 64,
        round_robin: false,
        small_test: true,
    }
}

fn start(tag: &str, workers: usize, queue: usize) -> (DaemonHandle, PathBuf) {
    let socket = std::env::temp_dir().join(format!("dsmd-test-{}-{tag}.sock", std::process::id()));
    let handle = serve(&DaemonConfig {
        socket: socket.clone(),
        workers,
        queue,
    })
    .expect("daemon binds");
    (handle, socket)
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &PathBuf) -> Client {
        let stream = UnixStream::connect(socket).expect("daemon is listening");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        parse(reply.trim_end()).expect("daemon replies with valid JSON")
    }
}

fn assert_ok(v: &Value) {
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected ok reply, got {}",
        v.to_json()
    );
}

fn code_of(v: &Value) -> &str {
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    v.get("code").and_then(Value::as_str).unwrap()
}

/// Run remotely and return `(digest, captures, profile_json)`.
fn remote_run(client: &mut Client, opts: &ExecOptions, cold: bool) -> (String, Vec<Vec<f64>>, Option<String>) {
    let line = run_request_json(
        &sources(),
        &OptConfig::default(),
        &spec(),
        &opts.to_json(),
        0,
        None,
        cold,
    );
    let reply = client.roundtrip(&line);
    assert_ok(&reply);
    let outcome_v = reply.get("outcome").expect("run reply carries outcome");
    let digest = digest_from_report_value(outcome_v.get("report").unwrap()).unwrap();
    let decoded = outcome_from_value(outcome_v).expect("outcome decodes");
    (digest, decoded.captures, decoded.profile_json)
}

/// The same run done locally.
fn local_run(opts: &ExecOptions) -> (String, Vec<Vec<f64>>, Option<String>) {
    let program = compile_source(&sources(), &OptConfig::default()).expect("compiles");
    let out = program.run(&spec().to_config(), opts).expect("runs");
    let profile_json = out.profile().map(|p| p.to_json());
    (out.report.digest_json(), out.captures.clone(), profile_json)
}

#[test]
fn ping_stats_and_bad_requests() {
    let (handle, socket) = start("ping", 1, 4);
    let mut c = Client::connect(&socket);
    assert_ok(&c.roundtrip("{\"op\":\"ping\"}"));
    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert_ok(&stats);
    assert_eq!(
        stats.get("queue").and_then(|q| q.get("capacity")).and_then(Value::as_u64),
        Some(4)
    );
    assert_eq!(code_of(&c.roundtrip("this is not json")), "daemon.bad-request");
    assert_eq!(code_of(&c.roundtrip("{\"op\":\"warp\"}")), "daemon.bad-request");
    handle.shutdown();
    handle.join();
}

/// A line nested 20 000 arrays deep used to overflow the connection
/// thread's stack and abort the daemon; it is a bad request, and the
/// same connection goes on to answer a ping and a run.
#[test]
fn deep_nesting_is_a_bad_request_and_the_connection_survives() {
    let (handle, socket) = start("deep", 1, 4);
    let mut c = Client::connect(&socket);
    let reply = c.roundtrip(&"[".repeat(20_000));
    assert_eq!(code_of(&reply), "daemon.bad-request");
    let message = reply.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(message.contains("nesting deeper than 128"), "{message}");
    assert_ok(&c.roundtrip("{\"op\":\"ping\"}"));
    let opts = ExecOptions::new(4).capture(&["a"]);
    assert_eq!(remote_run(&mut c, &opts, false).0, local_run(&opts).0);
    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert_eq!(stats.get("bad_requests").and_then(Value::as_u64), Some(1));
    handle.shutdown();
    handle.join();
}

/// A request line past the byte cap is a bad request, skipped to its
/// newline; the same connection goes on to answer a ping, and a run
/// whose report is a fresh daemon's, bit for bit.
#[test]
fn an_oversized_line_is_a_bad_request_and_the_connection_survives() {
    let opts = ExecOptions::new(4).capture(&["a", "b"]).profile(true);
    let (fresh_handle, fresh_socket) = start("fresh", 1, 4);
    let fresh = remote_run(&mut Client::connect(&fresh_socket), &opts, false);
    fresh_handle.shutdown();
    fresh_handle.join();

    let (handle, socket) = start("oversized", 1, 4);
    let mut c = Client::connect(&socket);
    let reply = c.roundtrip(&"x".repeat(dsm_daemon::server::MAX_LINE_BYTES + 1));
    assert_eq!(code_of(&reply), "daemon.bad-request");
    let message = reply
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or_default();
    assert!(message.contains("longer than"), "{message}");
    assert_ok(&c.roundtrip("{\"op\":\"ping\"}"));
    assert_eq!(remote_run(&mut c, &opts, false), fresh);
    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert_eq!(stats.get("bad_requests").and_then(Value::as_u64), Some(1));
    handle.shutdown();
    handle.join();
}

/// Requests from clients that still send the retired `serial_team`
/// option decode, and run exactly as the same request without it.
#[test]
fn a_request_carrying_serial_team_runs_as_one_without_it() {
    let (handle, socket) = start("serialteam", 1, 4);
    let mut c = Client::connect(&socket);
    let opts = ExecOptions::new(4).capture(&["a"]);
    let options = opts.to_json();
    assert!(!options.contains("serial_team"), "{options}");
    let old = options.replacen('{', "{\"serial_team\":false,", 1);
    let digest = |c: &mut Client, options: &str| {
        let line = run_request_json(
            &sources(),
            &OptConfig::default(),
            &spec(),
            options,
            0,
            None,
            false,
        );
        let reply = c.roundtrip(&line);
        assert_ok(&reply);
        let report = reply.get("outcome").and_then(|o| o.get("report")).unwrap();
        digest_from_report_value(report).unwrap()
    };
    assert_eq!(digest(&mut c, &old), digest(&mut c, &options));
    assert_eq!(digest(&mut c, &old), local_run(&opts).0);
    handle.shutdown();
    handle.join();
}

/// One cached program — its bytecode lowered once, at its first run —
/// run ten times in a row and then two-by-two from two threads on pooled
/// machines: every digest is a fresh compile-and-run's.
#[test]
fn one_program_shares_its_code_across_runs_and_threads() {
    let (cache, pool) = (ProgramCache::new(), MachinePool::new());
    let opts = ExecOptions::new(4).capture(&["a", "b"]);
    let (fresh, ..) = local_run(&opts);
    let (program, _) = (cache.get_or_compile(&sources(), &OptConfig::default())).expect("compiles");
    let run = || {
        let mut pm = pool.acquire(&spec());
        let out = program.run_on(&mut pm.machine, &opts).expect("runs");
        pool.release(pm);
        out.report.digest_json()
    };
    for _ in 0..10 {
        assert_eq!(run(), fresh);
    }
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..2).map(|_| s.spawn(|| [run(), run()])).collect();
        for t in threads {
            assert_eq!(t.join().expect("runs"), [fresh.clone(), fresh.clone()]);
        }
    });
    assert!(pool.stats().reused >= 10);
}

#[test]
fn remote_reports_are_bit_identical_to_local() {
    let (handle, socket) = start("bitid", 2, 16);
    let mut c = Client::connect(&socket);
    // Every run is deterministic (docs/SIMULATOR.md), so whole reports
    // compare bit for bit.
    let variants: Vec<ExecOptions> = vec![
        ExecOptions::new(4).capture(&["a", "b"]).profile(true),
        ExecOptions::new(4)
            .engine(Engine::Interp)
            .capture(&["b"])
            .migration(MigrationPolicy::threshold(2)),
        ExecOptions::new(4)
            .capture(&["a"])
            .sampling(SamplingConfig { rate: 4, seed: 1 }),
        ExecOptions::new(4)
            .engine(Engine::Interp)
            .sampling(SamplingConfig { rate: 4, seed: 1 })
            .migration(MigrationPolicy::competitive(4)),
    ];
    for opts in &variants {
        let (ld, lc, lp) = local_run(opts);
        // First remote run: cold cache, freshly built machine.
        let (rd1, rc1, rp1) = remote_run(&mut c, opts, false);
        // Second: cache hit on a snapshot-restored pooled machine.
        let (rd2, rc2, rp2) = remote_run(&mut c, opts, false);
        assert_eq!(rd1, ld, "remote digest diverged: {}", opts.to_json());
        assert_eq!(rd2, ld, "pooled-machine digest diverged: {}", opts.to_json());
        let bits =
            |c: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
                c.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
            };
        assert_eq!(bits(&rc1), bits(&lc));
        assert_eq!(bits(&rc2), bits(&lc));
        assert_eq!(rp1, lp);
        assert_eq!(rp2, lp);
    }
    let pool = handle.state().pool.stats();
    assert!(pool.reused >= 1, "pooled machines were reused");
    let cache = handle.state().cache.stats();
    assert!(cache.hits >= variants.len() as u64, "cache served repeats");
    handle.shutdown();
    handle.join();
}

#[test]
fn cold_runs_bypass_cache_and_pool_but_match() {
    let (handle, socket) = start("cold", 1, 8);
    let mut c = Client::connect(&socket);
    let opts = ExecOptions::new(4).capture(&["a"]);
    let (ld, lc, _) = local_run(&opts);
    let (rd, rc, _) = remote_run(&mut c, &opts, true);
    let (rd2, _, _) = remote_run(&mut c, &opts, true);
    assert_eq!(rd, ld);
    assert_eq!(rd2, ld);
    assert_eq!(rc.len(), lc.len());
    let s = handle.state();
    assert_eq!(s.cache.stats().entries, 0, "cold runs must not populate the cache");
    assert_eq!(s.pool.stats().created, 0, "cold runs must not touch the pool");
    handle.shutdown();
    handle.join();
}

#[test]
fn compile_op_caches_and_reports_key() {
    let (handle, socket) = start("compile", 1, 8);
    let mut c = Client::connect(&socket);
    let line = compile_request_json(&sources(), &OptConfig::default());
    let first = c.roundtrip(&line);
    let second = c.roundtrip(&line);
    assert_ok(&first);
    assert_ok(&second);
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        first.get("key").and_then(Value::as_str),
        second.get("key").and_then(Value::as_str)
    );
    // A subsequent run of the same program is a cache hit too.
    let (rd, _, _) = remote_run(&mut c, &ExecOptions::new(4), false);
    assert!(!rd.is_empty());
    assert!(handle.state().cache.stats().hits >= 2);
    handle.shutdown();
    handle.join();
}

#[test]
fn errors_carry_stable_codes_and_discard_the_machine() {
    let (handle, socket) = start("errs", 1, 8);
    let mut c = Client::connect(&socket);
    // Compile error.
    let bad = vec![("t.f".to_string(), "      program main\n      x = 1\n      end\n".to_string())];
    let reply = c.roundtrip(&run_request_json(
        &bad,
        &OptConfig::default(),
        &spec(),
        &ExecOptions::new(4).to_json(),
        0,
        None,
        false,
    ));
    assert_eq!(code_of(&reply), "compile");
    // Step-limit runtime error: the pooled machine must be discarded,
    // and the next run must still be bit-identical to local.
    let reply = c.roundtrip(&run_request_json(
        &sources(),
        &OptConfig::default(),
        &spec(),
        &ExecOptions::new(4).max_steps(16).to_json(),
        0,
        None,
        false,
    ));
    assert_eq!(code_of(&reply), "exec.step-limit");
    assert_eq!(handle.state().pool.stats().discarded, 1);
    let opts = ExecOptions::new(4).capture(&["a"]);
    let (ld, ..) = local_run(&opts);
    let (rd, ..) = remote_run(&mut c, &opts, false);
    assert_eq!(rd, ld, "run after a discarded machine still matches local");
    // Invalid sampling geometry is refused before execution.
    let reply = c.roundtrip(&run_request_json(
        &sources(),
        &OptConfig::default(),
        &spec(),
        &ExecOptions::new(4).sampling(SamplingConfig { rate: 3, seed: 0 }).to_json(),
        0,
        None,
        false,
    ));
    assert_eq!(code_of(&reply), "daemon.bad-request");
    handle.shutdown();
    handle.join();
}

/// 129 processors do not fit the directory's sharer set: the request is
/// refused at decode (cold and pooled alike) and the daemon keeps serving.
#[test]
fn more_than_128_processors_is_a_bad_request() {
    let (handle, socket) = start("maxprocs", 1, 4);
    let mut c = Client::connect(&socket);
    for cold in [false, true] {
        let reply = c.roundtrip(&run_request_json(
            &sources(),
            &OptConfig::default(),
            &MachineSpec {
                procs: 129,
                ..spec()
            },
            &ExecOptions::new(129).to_json(),
            0,
            None,
            cold,
        ));
        assert_eq!(code_of(&reply), "daemon.bad-request", "cold={cold}");
    }
    assert_eq!(handle.state().pool.stats().created, 0);
    let opts = ExecOptions::new(4).capture(&["a"]);
    assert_eq!(remote_run(&mut c, &opts, false).0, local_run(&opts).0);
    handle.shutdown();
    handle.join();
}

/// A zero scale divisor (or zero processors) used to reach
/// `scaled_origin2000`'s assert inside a worker and kill it; it is
/// refused at decode, cold and pooled alike, no machine is built, and
/// the one worker keeps serving.
#[test]
fn zero_scale_or_procs_is_a_bad_request() {
    let (handle, socket) = start("zeroscale", 1, 4);
    let mut c = Client::connect(&socket);
    let origin = MachineSpec::origin2000(8, 0, false);
    let zero_scale = MachineSpec { scale: 0, ..spec() };
    let zero_procs = MachineSpec { procs: 0, ..spec() };
    for machine in [origin, zero_scale, zero_procs] {
        for cold in [false, true] {
            let reply = c.roundtrip(&run_request_json(
                &sources(),
                &OptConfig::default(),
                &machine,
                &ExecOptions::new(4).to_json(),
                0,
                None,
                cold,
            ));
            assert_eq!(code_of(&reply), "daemon.bad-request", "{machine:?} cold={cold}");
        }
    }
    assert_eq!(handle.state().pool.stats().created, 0);
    let opts = ExecOptions::new(4).capture(&["a"]);
    assert_eq!(remote_run(&mut c, &opts, false).0, local_run(&opts).0);
    handle.shutdown();
    handle.join();
}

/// A rank-9 array used to run under the interpreter and panic the
/// bytecode VM's `elem_addr` — a dead worker. Sema refuses it, so `run`
/// (both engines) gets a `compile` reply, `advise` an `advise` one
/// naming the rank, and the one worker serves the next request.
#[test]
fn rank_above_max_rank_is_a_compile_error() {
    let (handle, socket) = start("rank9", 1, 4);
    let mut c = Client::connect(&socket);
    let rank9 = vec![(
        "t.f".to_string(),
        "      program main\n      real*8 a(2,2,2,2,2,2,2,2,2)\n      a(1,1,1,1,1,1,1,1,1) = 1.0\n      end\n"
            .to_string(),
    )];
    for engine in [Engine::Bytecode, Engine::Interp] {
        let opts = ExecOptions::new(4).engine(engine).to_json();
        let reply = c.roundtrip(&run_request_json(
            &rank9,
            &OptConfig::default(),
            &spec(),
            &opts,
            0,
            None,
            false,
        ));
        assert_eq!(code_of(&reply), "compile", "{engine:?}");
    }
    // The advisor wraps every failure of its own in the `advise` code.
    let reply = c.roundtrip(&advise_request_json(&rank9, 4, 512, 4));
    assert_eq!(code_of(&reply), "advise");
    let message = reply.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(message.contains("rank 9, the maximum is 8"), "{message}");
    let opts = ExecOptions::new(4).capture(&["a"]);
    assert_eq!(remote_run(&mut c, &opts, false).0, local_run(&opts).0);
    handle.shutdown();
    handle.join();
}

#[test]
fn expired_wall_budget_is_refused_at_dequeue() {
    let (handle, socket) = start("deadline", 1, 8);
    let mut c = Client::connect(&socket);
    let reply = c.roundtrip(&run_request_json(
        &sources(),
        &OptConfig::default(),
        &spec(),
        &ExecOptions::new(4).to_json(),
        0,
        Some(0),
        false,
    ));
    assert_eq!(code_of(&reply), "daemon.deadline");
    handle.shutdown();
    handle.join();
}

#[test]
fn saturated_queue_answers_overloaded() {
    // One worker, queue bound 1: of several concurrent requests, at
    // least one runs and at least one is refused with
    // `daemon.overloaded` — and ping keeps answering inline throughout.
    let (handle, socket) = start("overload", 1, 1);
    let opts = ExecOptions::new(4).to_json();
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let socket = socket.clone();
            let opts = opts.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket);
                let reply = c.roundtrip(&run_request_json(
                    &sources(),
                    &OptConfig::default(),
                    &spec(),
                    &opts,
                    0,
                    None,
                    true, // cold: keep the worker busy long enough to pile up
                ));
                match reply.get("ok").and_then(Value::as_bool) {
                    Some(true) => "ok".to_string(),
                    _ => reply.get("code").and_then(Value::as_str).unwrap().to_string(),
                }
            })
        })
        .collect();
    let outcomes: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(outcomes.iter().any(|o| o == "ok"), "outcomes: {outcomes:?}");
    assert!(
        outcomes.iter().any(|o| o == "daemon.overloaded"),
        "expected at least one overloaded reply: {outcomes:?}"
    );
    let mut c = Client::connect(&socket);
    assert_ok(&c.roundtrip("{\"op\":\"ping\"}"));
    assert!(handle.state().sched.stats().peak <= 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn priorities_reorder_the_queue() {
    // Scheduler-level property, asserted end-to-end: with one worker
    // busy, a high-priority request admitted after a low-priority one
    // is served first. We verify via per-request replies arriving in
    // priority order on a single connection? The protocol is one
    // in-flight request per connection, so instead assert on the
    // daemon's stats: both complete, none refused.
    let (handle, socket) = start("prio", 1, 4);
    let opts = ExecOptions::new(4).to_json();
    let mk = |priority: i64| {
        run_request_json(
            &sources(),
            &OptConfig::default(),
            &spec(),
            &opts,
            priority,
            None,
            false,
        )
    };
    let threads: Vec<_> = [0i64, 5, 3]
        .into_iter()
        .map(|p| {
            let socket = socket.clone();
            let line = mk(p);
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket);
                let reply = c.roundtrip(&line);
                reply.get("ok").and_then(Value::as_bool) == Some(true)
            })
        })
        .collect();
    assert!(threads.into_iter().all(|t| t.join().unwrap()));
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let (handle, socket) = start("shutdown", 2, 4);
    let mut c = Client::connect(&socket);
    let reply = c.roundtrip("{\"op\":\"shutdown\"}");
    assert_ok(&reply);
    // join() returning proves the accept loop and all workers exited.
    handle.join();
    assert!(UnixStream::connect(&socket).is_err(), "socket file removed");
}
