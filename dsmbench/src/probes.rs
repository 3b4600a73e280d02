//! Per-layer probes: timed calls into each crate's public functions on
//! fixed inputs, run after every traced workload. They are the layer
//! numbers the workloads' own spans cannot give — a workload sees
//! `run_on` as one interval, a probe times the machine's access paths
//! under it — and they are the same on every workload by construction.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dsm_core::workloads::{transpose_source, Policy};
use dsm_core::{compile_source, Engine, ExecOptions, Machine, MachineConfig, OptConfig};
use dsm_daemon::cache::CacheKey;
use dsm_daemon::{server, MachinePool, ProgramCache};
use dsm_ir::{Dist, DistKind, Distribution, SchedType};
use dsm_machine::{AccessKind, AccessRun, NodeId, ProcId};
use dsm_proto::{outcome_from_value, parse, parse_request, MachineSpec};
use dsm_runtime::sched::partition_affinity;
use dsm_runtime::{partition, plan_schedule, DistDescriptor, PoolSet, RtArray, DEFAULT_FAN};

use crate::daemon_mix::{hot_programs, Conn, Daemon, Program, HOT, HOT_60K};
use crate::gen::{empty_program, miss_program, Rng};
use crate::sim::MACHINE_SCALE;
use crate::stats::median;

/// Median nanoseconds of `reps` calls of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Run every probe; `seed` draws the daemon programs.
pub fn run_all(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    machine_probes(&mut out);
    runtime_probes(&mut out);
    exec_probes(&mut out, seed);
    daemon_probes(&mut out, seed);
    out
}

fn dsmfc_machine() -> MachineConfig {
    MachineConfig::scaled_origin2000(8, MACHINE_SCALE)
}

fn machine_probes(out: &mut BTreeMap<&'static str, f64>) {
    let cfg = dsmfc_machine();
    out.insert(
        "machine.new_ms",
        median_ns(20, || drop(black_box(Machine::new(cfg.clone())))) / 1e6,
    );
    let mut m = Machine::new(cfg.clone());
    out.insert(
        "machine.snapshot_ms",
        median_ns(20, || drop(black_box(m.snapshot()))) / 1e6,
    );
    let pristine = m.snapshot();
    out.insert(
        "machine.restore_ms",
        median_ns(20, || m.restore(&pristine)) / 1e6,
    );

    // Nanoseconds per `Machine::access` down each path of the pipeline.
    const PASSES: u64 = 20;
    let (line, page) = (cfg.l2.line_size as u64, cfg.page_size as u64);
    let per_access = |m: &mut Machine, proc, base, stride: u64, count: u64, kind| {
        median_ns(9, || {
            for pass in 0..PASSES {
                for i in 0..count {
                    black_box(m.access(proc, base + i * stride, kind) + pass);
                }
            }
        }) / (PASSES * count) as f64
    };
    let mut m = Machine::new(cfg.clone());
    let hot = m.alloc_pages(page as usize);
    let l1 = per_access(&mut m, ProcId(0), hot, 0, 4096, AccessKind::Read);
    out.insert("machine.access.l1_hit_ns", l1);

    // 8 × the L2: with 2-way LRU a sequential sweep misses every line.
    let span = 8 * cfg.l2.size;
    let (local, remote) = (m.alloc_pages(span), m.alloc_pages(span));
    m.place_range(local, span, NodeId(0));
    m.place_range(remote, span, NodeId(1));
    let lines = span as u64 / line;
    let l2_local = per_access(&mut m, ProcId(0), local, line, lines, AccessKind::Read);
    out.insert("machine.access.l2_local_ns", l2_local);
    let l2_remote = per_access(&mut m, ProcId(0), remote, line, lines, AccessKind::Read);
    out.insert("machine.access.l2_remote_ns", l2_remote);

    // One access a page over 4 × the TLB's reach.
    let pages = 4 * cfg.tlb_entries as u64;
    let wide = m.alloc_pages((pages * page) as usize);
    let tlb = per_access(&mut m, ProcId(0), wide, page, pages, AccessKind::Read);
    out.insert("machine.access.tlb_miss_ns", tlb);

    // Two processors on different nodes writing one line in turn.
    let shared = m.alloc_pages(page as usize);
    let pingpong = median_ns(9, || {
        for _ in 0..4096 {
            black_box(m.access(ProcId(0), shared, AccessKind::Write));
            black_box(m.access(ProcId(2), shared + 8, AccessKind::Write));
        }
    });
    out.insert("machine.access.write_shared_ns", pingpong / 8192.0);

    // A unit-stride page-spanning store run through the bulk walker.
    let count = span as u64 / 8;
    let vals = vec![1.5; count as usize];
    let run = AccessRun {
        base: local,
        stride: 8,
        count,
        kind: AccessKind::Write,
    };
    let batched = median_ns(9, || {
        black_box(m.write_run_f64(ProcId(0), &run, &vals));
    });
    out.insert("machine.run_batched.elem_ns", batched / count as f64);
}

fn runtime_probes(out: &mut BTreeMap<&'static str, f64>) {
    const NPROCS: usize = 32;
    let block = Distribution::new(vec![Dist::Block]);
    let cyclic = Distribution::new(vec![Dist::Cyclic(4)]);

    // One loop partitioned three ways: simple, interleave, affinity.
    let dim = DistDescriptor::new(&[4096], &block, NPROCS).dims[0];
    let partition_ns = median_ns(201, || {
        black_box(partition(SchedType::Simple, 1, 4096, 1, NPROCS));
        black_box(partition(SchedType::Interleave(4), 1, 4096, 1, NPROCS));
        black_box(partition_affinity(1, 4096, 1, &dim, 1, 0));
    });
    out.insert("runtime.partition_ns", partition_ns / 3.0);

    // The 8192-page P = 32 storm of `redist_throughput.rs`: block →
    // cyclic(4) → block, then a team shrink and restore.
    const EXTENT: u64 = 1 << 20;
    let mut m = Machine::new(MachineConfig::small_test(NPROCS));
    let mut pools = PoolSet::new(NPROCS, 4096);
    let mut a = RtArray::instantiate(
        &mut m,
        &mut pools,
        "a",
        &[EXTENT],
        Some(&block),
        DistKind::Regular,
        NPROCS,
    );
    let pages = (EXTENT * 8 / m.config().page_size as u64) as f64;
    let dsm_runtime::ArrayLayout::Contiguous { base } = a.layout else {
        unreachable!("regular arrays are contiguous");
    };
    let to_cyclic = DistDescriptor::new(&[EXTENT], &cyclic, NPROCS);
    let plan_ns = median_ns(5, || {
        black_box(plan_schedule(
            &m,
            base,
            EXTENT * 8,
            &to_cyclic,
            8,
            DEFAULT_FAN,
        ));
    });
    out.insert("runtime.redist.plan_ms", plan_ns / 1e6);

    let caller = ProcId(0);
    let (mut moved, mut redist_s, mut resize_s) = (0, Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        moved += a
            .redistribute_scheduled(&mut m, caller, &cyclic, NPROCS)
            .expect("regular array");
        moved += a
            .redistribute_scheduled(&mut m, caller, &block, NPROCS)
            .expect("regular array");
        redist_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        moved += a
            .resize_team(&mut m, caller, NPROCS / 2, true)
            .expect("regular array");
        moved += a
            .resize_team(&mut m, caller, NPROCS, true)
            .expect("regular array");
        resize_s.push(start.elapsed().as_secs_f64());
    }
    out.insert(
        "runtime.redist.pages_per_s",
        2.0 * pages / median(&redist_s),
    );
    out.insert(
        "runtime.resize.pages_per_s",
        2.0 * pages / median(&resize_s),
    );
    out.insert("runtime.redist.pages_moved", moved as f64);
}

fn exec_probes(out: &mut BTreeMap<&'static str, f64>, seed: u64) {
    let opt = OptConfig::default();
    let cfg = Policy::Reshaped.machine(8, MACHINE_SCALE);
    let serial = ExecOptions::new(8).serial_team(true);

    // What a run costs before its first statement.
    let empty = empty_program(&mut Rng::new(seed, 8), HOT[HOT_60K].0);
    let empty = compile_source(&empty, &opt).expect("compiles");
    let mut m = Machine::new(cfg.clone());
    let pristine = m.snapshot();
    let fixed_ns = median_ns(51, || {
        black_box(empty.run_on(&mut m, &serial).expect("runs"));
        m.restore(&pristine);
    });
    let restore_ns = median_ns(51, || m.restore(&pristine));
    out.insert("exec.fixed_run_ms", (fixed_ns - restore_ns).max(0.0) / 1e6);

    // The oracle engine, and what attribution profiling costs when on.
    let source = vec![(
        "t.f".to_string(),
        transpose_source(320, 6, Policy::Reshaped),
    )];
    let transpose = compile_source(&source, &opt).expect("compiles");
    let timed = |opts: &ExecOptions| {
        let start = Instant::now();
        let report = transpose.run(&cfg, opts).expect("runs").report;
        (
            report.total.accesses() as f64,
            start.elapsed().as_secs_f64(),
        )
    };
    let (accesses, interp_s) = timed(&serial.clone().engine(Engine::Interp));
    out.insert("exec.interp.maccess_per_s", accesses / 1e6 / interp_s);
    let (_, plain_s) = timed(&serial);
    let (_, profiled_s) = timed(&serial.clone().profile(true));
    out.insert("exec.profile_overhead_ratio", profiled_s / plain_s);
}

fn daemon_probes(out: &mut BTreeMap<&'static str, f64>, seed: u64) {
    let mut rng = Rng::new(seed, 7);
    let hot = hot_programs(&mut rng);
    let big: &Program = &hot[HOT_60K];
    let line = big.request();
    let opt = OptConfig::default();

    let daemon = Daemon::start();
    let mut conn = Conn::connect(daemon.handle().socket()).expect("daemon accepts");
    let ping_ns = median_ns(501, || drop(black_box(conn.roundtrip("{\"op\":\"ping\"}"))));
    out.insert("dsmd.ping_rtt_us", ping_ns / 1e3);
    let reply = conn.roundtrip(&line).expect("daemon replies");
    let hit_rtt_ns = median_ns(201, || drop(black_box(conn.roundtrip(&line))));

    // The wire: one 60 KB-body request and its reply.
    out.insert("proto.request_bytes", line.len() as f64);
    out.insert("proto.reply_bytes", reply.trim_end().len() as f64);
    let encode_ns = median_ns(201, || drop(black_box(big.request())));
    out.insert("proto.encode_request_us", encode_ns / 1e3);
    let parse_ns = median_ns(201, || drop(black_box(parse_request(&line))));
    out.insert("proto.parse_request_us", parse_ns / 1e3);
    out.insert(
        "proto.parse_mb_per_s",
        line.len() as f64 / 1e6 / (parse_ns / 1e9),
    );
    let decode_ns = median_ns(201, || {
        let v = parse(reply.trim_end()).expect("reply parses");
        black_box(outcome_from_value(v.get("outcome").expect("run reply")).expect("decodes"));
    });
    out.insert("proto.decode_outcome_us", decode_ns / 1e3);

    // The daemon's stages, in process.
    let key_ns = median_ns(201, || {
        black_box(CacheKey::new(&big.sources, &opt));
    });
    out.insert("dsmd.cache.key_us", key_ns / 1e3);
    let cache = ProgramCache::new();
    cache.get_or_compile(&big.sources, &opt).expect("compiles");
    let hit_ns = median_ns(201, || {
        drop(black_box(cache.get_or_compile(&big.sources, &opt)))
    });
    out.insert("dsmd.cache.hit_us", hit_ns / 1e3);
    let miss_ns = median_ns(21, || {
        let fresh = miss_program(&mut rng);
        drop(black_box(cache.get_or_compile(&fresh, &opt)));
    });
    out.insert("dsmd.cache.miss_ms", miss_ns / 1e6);
    let pool = MachinePool::new();
    let spec: &MachineSpec = &big.spec;
    pool.release(pool.acquire(spec));
    let cycle_ns = median_ns(201, || pool.release(pool.acquire(spec)));
    out.insert("dsmd.pool.cycle_us", cycle_ns / 1e3);
    let request = parse_request(&line).expect("request parses");
    let state = daemon.handle().state();
    let execute_ns = median_ns(201, || {
        black_box(server::execute(state, request.clone()));
    });
    out.insert("dsmd.execute_hit_us", execute_ns / 1e3);
    // What the socket adds to a hit: queue wait, thread hand-off, I/O.
    out.insert(
        "dsmd.handoff_idle_us",
        (hit_rtt_ns - parse_ns - execute_ns) / 1e3,
    );
}
