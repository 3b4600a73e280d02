//! Request execution and per-connection protocol handling.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use dsm_core::{advise, AdvisorConfig, Machine};
use dsm_proto::{
    error_reply, parse_request, write_json_str, Request, CODE_BAD_REQUEST, CODE_OVERLOADED,
};

use crate::cache::CacheKey;
use crate::sched::Job;
use crate::State;

/// Stable error code for advisor failures (no distribution found,
/// search budget exhausted without a verified winner, …).
pub const CODE_ADVISE: &str = "advise";

fn ok_head(op: &str) -> String {
    format!("{{\"ok\":true,\"op\":\"{op}\"")
}

fn ping_reply() -> String {
    let mut s = ok_head("ping");
    s.push_str(",\"version\":");
    write_json_str(&mut s, env!("CARGO_PKG_VERSION"));
    s.push('}');
    s
}

fn stats_reply(state: &State) -> String {
    let cache = state.cache.stats();
    let pool = state.pool.stats();
    let queue = state.sched.stats();
    let mut s = ok_head("stats");
    s.push_str(&format!(
        ",\"uptime_ms\":{},\"served\":{},\"errors\":{},\"bad_requests\":{},\
         \"overloaded\":{},\"deadline_expired\":{},\
         \"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{},\"bytes\":{},\
         \"evictions\":{}}},\
         \"pool\":{{\"pooled\":{},\"created\":{},\"reused\":{},\"discarded\":{}}},\
         \"queue\":{{\"depth\":{},\"capacity\":{},\"peak\":{}}}}}",
        state.start.elapsed().as_millis(),
        state.served.load(Ordering::Relaxed),
        state.errors.load(Ordering::Relaxed),
        state.bad_requests.load(Ordering::Relaxed),
        state.overloaded.load(Ordering::Relaxed),
        state.deadline_expired.load(Ordering::Relaxed),
        cache.entries,
        cache.hits,
        cache.misses,
        cache.bytes,
        cache.evictions,
        pool.pooled,
        pool.created,
        pool.reused,
        pool.discarded,
        queue.depth,
        queue.capacity,
        queue.peak,
    ));
    s
}

/// Execute one queued request, returning the reply line. Runs on a
/// worker thread; everything here may block for the length of a
/// simulation.
pub fn execute(state: &State, req: Request) -> String {
    match req {
        // Inline ops never reach the queue; keep the worker total.
        Request::Ping => ping_reply(),
        Request::Stats => stats_reply(state),
        Request::Shutdown => ok_head("shutdown") + "}",
        Request::Compile { sources, opt } => match state.cache.get_or_compile(&sources, &opt) {
            Ok((program, cached)) => {
                let pr = program.prelink_report();
                let mut s = ok_head("compile");
                s.push_str(&format!(
                    ",\"cached\":{cached},\"key\":\"{}\",\"prelink\":{{\"clones\":{},\
                     \"recompilations\":{}}}}}",
                    CacheKey::new(&sources, &opt).render(),
                    pr.clones_created,
                    pr.recompilations,
                ));
                s
            }
            Err(e) => error_reply(e.code(), &e.to_string()),
        },
        Request::Run {
            sources,
            opt,
            machine,
            options,
            cold,
            ..
        } => {
            let mut options = options;
            if let Some(sample) = options.sampling {
                let cfg = machine.to_config();
                if let Err(e) = sample.validate_geometry(&cfg.l1, &cfg.l2) {
                    return error_reply(CODE_BAD_REQUEST, &format!("sampling: {e}"));
                }
            }
            // The spec's processor count wins over whatever the client
            // put in options.nprocs — one knob, not two disagreeing.
            options.nprocs = machine.procs;
            let run = if cold {
                // Benchmark path: price a full per-request pipeline.
                dsm_core::compile_source(&sources, &opt).and_then(|program| {
                    let pr = program.prelink_report();
                    let prelink = (pr.clones_created, pr.recompilations);
                    let mut m = Machine::new(machine.to_config());
                    program
                        .run_on(&mut m, &options)
                        .map(|out| (out, prelink, false))
                })
            } else {
                state
                    .cache
                    .get_or_compile(&sources, &opt)
                    .and_then(|(program, cached)| {
                        let pr = program.prelink_report();
                        let prelink = (pr.clones_created, pr.recompilations);
                        let mut pm = state.pool.acquire(&machine);
                        match program.run_on(&mut pm.machine, &options) {
                            Ok(out) => {
                                state.pool.release(pm);
                                Ok((out, prelink, cached))
                            }
                            Err(e) => {
                                state.pool.discard(pm);
                                Err(e)
                            }
                        }
                    })
            };
            match run {
                Ok((out, (clones, recompilations), cached)) => {
                    let mut s = ok_head("run");
                    s.push_str(&format!(
                        ",\"cached\":{cached},\"cold\":{cold},\"prelink\":{{\"clones\":{clones},\
                         \"recompilations\":{recompilations}}},\"outcome\":{}",
                        out.to_json(),
                    ));
                    s.push_str(",\"profile_text\":");
                    match out.profile() {
                        Some(p) => write_json_str(&mut s, &p.to_string()),
                        None => s.push_str("null"),
                    }
                    s.push('}');
                    s
                }
                Err(e) => error_reply(e.code(), &e.to_string()),
            }
        }
        Request::Advise {
            sources,
            procs,
            scale,
            budget,
        } => {
            let cfg = AdvisorConfig {
                nprocs: procs,
                scale,
                budget,
                ..AdvisorConfig::default()
            };
            match advise(&sources, &cfg) {
                Ok(a) => {
                    let mut s = ok_head("advise");
                    s.push_str(&format!(
                        ",\"baseline\":{{\"cycles\":{},\"remote_misses\":{}}},\
                         \"best\":{{\"cycles\":{},\"remote_misses\":{}}},\
                         \"speedup_bits\":{},\"evaluated\":{},\"pruned\":{},\"rejected\":{},\
                         \"verified\":{},\"directives\":[",
                        a.baseline.total_cycles,
                        a.baseline.remote_misses,
                        a.best.total_cycles,
                        a.best.remote_misses,
                        a.speedup().to_bits(),
                        a.evaluated,
                        a.pruned,
                        a.rejected,
                        a.verified_runs,
                    ));
                    for (i, d) in a.directives().iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        write_json_str(&mut s, d);
                    }
                    s.push_str("],\"plan_json\":");
                    write_json_str(&mut s, &a.plan_json());
                    s.push_str(",\"emitted\":");
                    write_json_str(&mut s, a.emitted());
                    s.push('}');
                    s
                }
                Err(e) => error_reply(CODE_ADVISE, &e.to_string()),
            }
        }
    }
}

/// Worker-thread loop: drain the scheduler until it closes.
pub fn worker_loop(state: &State) {
    while let Some(job) = state.sched.next() {
        let Job {
            deadline,
            enqueued,
            req,
            reply,
            ..
        } = job;
        let line = if deadline.is_some_and(|d| Instant::now() > d) {
            state.deadline_expired.fetch_add(1, Ordering::Relaxed);
            error_reply(
                dsm_proto::CODE_DEADLINE,
                &format!(
                    "wall budget expired after {:?} in queue",
                    enqueued.elapsed()
                ),
            )
        } else {
            execute(state, req)
        };
        if line.starts_with("{\"ok\":true") {
            state.served.fetch_add(1, Ordering::Relaxed);
        } else {
            state.errors.fetch_add(1, Ordering::Relaxed);
        }
        // A dropped receiver just means the client hung up.
        let _ = reply.send(line);
    }
}

/// Per-connection loop: one request line in, one reply line out, in
/// order. Ping/stats/shutdown are answered inline (they must work even
/// when the queue is saturated — that is how an operator notices the
/// saturation); compile/run/advise go through the scheduler.
pub fn handle_connection(state: &State, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let mut shutdown_after_reply = false;
        let reply = match parse_request(&line) {
            Err(msg) => {
                state.bad_requests.fetch_add(1, Ordering::Relaxed);
                error_reply(CODE_BAD_REQUEST, &msg)
            }
            Ok(Request::Ping) => ping_reply(),
            Ok(Request::Stats) => stats_reply(state),
            Ok(Request::Shutdown) => {
                shutdown_after_reply = true;
                ok_head("shutdown") + "}"
            }
            Ok(req) => {
                let (priority, wall_ms) = match &req {
                    Request::Run {
                        priority, wall_ms, ..
                    } => (*priority, *wall_ms),
                    _ => (0, None),
                };
                let deadline = wall_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                let (tx, rx) = channel();
                match state.sched.submit(priority, deadline, req, tx) {
                    Err(_) => {
                        state.overloaded.fetch_add(1, Ordering::Relaxed);
                        error_reply(
                            CODE_OVERLOADED,
                            &format!(
                                "queue full ({} queued, capacity {})",
                                state.sched.stats().depth,
                                state.sched.stats().capacity
                            ),
                        )
                    }
                    Ok(()) => rx.recv().unwrap_or_else(|_| {
                        error_reply("daemon.internal", "worker dropped the reply")
                    }),
                }
            }
        };
        if writeln!(writer, "{reply}").and_then(|()| writer.flush()).is_err() {
            return;
        }
        if shutdown_after_reply {
            state.initiate_shutdown();
            return;
        }
    }
}
