//! The three workloads and one repetition of each, driven only through
//! the program's public entry points: `millipage::run` / `run_host`, the
//! apps' `setup` / `worker` / `checksum` / `reference`, and the `Dsm`
//! trait. Every per-layer time is taken here, around those calls.

use crate::stats::{self, Interval};
use crate::sys;
use millipage::{
    run, run_host, Category, ClusterConfig, Consistency, Dsm, HostCtx, HostDsmCtx, HostRunConfig,
    Pod, RunReport, SchedMode, SharedVec, TraceKind, Tracer,
};
use millipage_apps::{close, sor, water, TimedAgg};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SOR 2048×64, 4 iterations, simulated SW/MR, 16 hosts.
    Sor16h,
    /// WATER 512 molecules, 2 steps, simulated HLRC, 4 hosts.
    WaterHlrc4h,
    /// SOR 16384×64, 10 iterations, real memory, 2 hosts.
    HostSor2h,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::Sor16h, Self::WaterHlrc4h, Self::HostSor2h];

    pub fn name(self) -> &'static str {
        match self {
            Self::Sor16h => "sor-16h",
            Self::WaterHlrc4h => "water-hlrc-4h",
            Self::HostSor2h => "host-sor-2h",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the simulator, whose counts and
    /// simulated times must repeat exactly at a fixed seed.
    pub fn is_sim(self) -> bool {
        self != Self::HostSor2h
    }

    /// Timed repetitions a simulator process runs within `budget`, after
    /// its warm-up; `None` on the host backend, which runs as many as fit.
    /// The simulator runs a fixed number for a given budget, so its
    /// simulated numbers at a seed do not depend on the machine's speed.
    /// The nominal repetition times are those of a 2-core x86-64 VM with
    /// the simulator pinned to one CPU, rounded up.
    pub fn sim_timed_reps(self, budget: Duration) -> Option<u64> {
        let nominal_s = match self {
            Self::Sor16h => 4.5,
            Self::WaterHlrc4h => 1.8,
            Self::HostSor2h => return None,
        };
        let fit = (budget.as_secs_f64() / nominal_s) as u64;
        Some(fit.saturating_sub(1).max(1))
    }
}

/// Timed repetitions one host-backend process runs after its warm-up. The
/// host backend never returns its runtime, sockets or memory regions, and
/// hostmv's fault resolver has 64 region slots that are never reclaimed: a
/// two-host run takes two, so one process fits 32 runs. Four runs per
/// process keep the leak (about 100 MB a run) small.
pub const HOST_TIMED_PER_PROCESS: u64 = 3;

/// What a repetition does beyond the plain untraced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Set-up only: the workload's configuration and `setup`, with
    /// workers that return on entry. Measures set-up without paying for
    /// the computation.
    Probe,
    /// The workload as defined, untraced.
    Plain,
    /// The workload with every span recorded and the program's tracer on.
    Traced,
}

/// The outcome of one repetition: named numbers, the exact fingerprint of
/// everything a deterministic backend must repeat, and any check failures.
#[derive(Default)]
pub struct Rep {
    pub vals: BTreeMap<String, f64>,
    pub fingerprint: Option<String>,
    pub errors: Vec<String>,
    /// Spans of a traced repetition (empty otherwise).
    pub spans: Vec<Span>,
}

impl Rep {
    fn set(&mut self, key: &str, v: f64) {
        self.vals.insert(key.to_string(), v);
    }
}

/// One timed interval recorded by the benchmark. Wall times are
/// nanoseconds since the `run`/`run_host` call; simulated times are the
/// calling thread's virtual clock (zero on the host backend).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub host: u16,
    pub wall: Interval,
    pub sim: Interval,
    /// The call took a read or write fault (simulator only).
    pub faulted: bool,
}

impl Span {
    fn wall_us(&self) -> f64 {
        (self.wall.1 - self.wall.0) as f64 / 1e3
    }

    fn sim_us(&self) -> f64 {
        (self.sim.1 - self.sim.0) as f64 / 1e3
    }

    /// The span that caused this one.
    pub fn parent(&self) -> &'static str {
        match self.name {
            "run" => "-",
            "setup" | "worker" | "checksum" => "run",
            _ => "worker",
        }
    }
}

/// Simulated clock and fault time of a `Dsm` context, where it has them.
pub trait SimProbe {
    fn sim_now(&self) -> u64 {
        0
    }
    fn fault_ns(&self) -> u64 {
        0
    }
}

impl SimProbe for HostCtx {
    fn sim_now(&self) -> u64 {
        self.now()
    }
    fn fault_ns(&self) -> u64 {
        let b = self.breakdown();
        b.get(Category::ReadFault) + b.get(Category::WriteFault)
    }
}

impl SimProbe for HostDsmCtx {}

/// A `Dsm` context that records a span around every read, write and
/// barrier it forwards.
pub struct Traced<'a, D> {
    inner: &'a mut D,
    origin: Instant,
    spans: Vec<Span>,
}

impl<'a, D: Dsm + SimProbe> Traced<'a, D> {
    pub fn new(inner: &'a mut D, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            spans: Vec::new(),
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut D) -> R) -> R {
        let (sim0, fault0) = (self.inner.sim_now(), self.inner.fault_ns());
        let w0 = ns_since(self.origin);
        let r = f(&mut *self.inner);
        let w1 = ns_since(self.origin);
        self.spans.push(Span {
            name,
            host: self.inner.host().index() as u16,
            wall: (w0, w1),
            sim: (sim0, self.inner.sim_now()),
            faulted: self.inner.fault_ns() > fault0,
        });
        r
    }
}

impl<D: Dsm + SimProbe> Dsm for Traced<'_, D> {
    fn host(&self) -> millipage::HostId {
        self.inner.host()
    }

    fn hosts(&self) -> usize {
        self.inner.hosts()
    }

    fn read_range<T: Pod>(&mut self, sv: &SharedVec<T>, range: Range<usize>) -> Vec<T> {
        self.timed("read", |d| d.read_range(sv, range))
    }

    fn write_range<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, vals: &[T]) {
        self.timed("write", |d| d.write_range(sv, start, vals))
    }

    fn barrier(&mut self) {
        self.timed("barrier", |d| d.barrier())
    }

    fn timer_reset(&mut self) {
        self.inner.timer_reset()
    }

    fn compute(&mut self, ns: millipage::Ns) {
        self.timed("compute", |d| d.compute(ns))
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Wall-clock landmarks of one `run`/`run_host` call, shared by the setup
/// and worker closures.
struct Landmarks {
    call: Instant,
    setup_fn: Mutex<Interval>,
    first_entry: OnceLock<Instant>,
    last_exit: Mutex<Option<Instant>>,
    spans: Mutex<Vec<Span>>,
    checksum: Mutex<Option<f64>>,
}

impl Landmarks {
    fn new() -> Self {
        Self {
            call: Instant::now(),
            setup_fn: Mutex::new((0, 0)),
            first_entry: OnceLock::new(),
            last_exit: Mutex::new(None),
            spans: Mutex::new(Vec::new()),
            checksum: Mutex::new(None),
        }
    }

    fn setup<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = ns_since(self.call);
        let out = f();
        *self.setup_fn.lock().expect("setup landmark") = (t0, ns_since(self.call));
        out
    }

    fn enter(&self) -> u64 {
        self.first_entry.get_or_init(Instant::now);
        ns_since(self.call)
    }

    fn exit(&self, host: u16, entered: u64, sim: Interval, mut spans: Vec<Span>) {
        let now = Instant::now();
        spans.push(Span {
            name: "worker",
            host,
            wall: (entered, now.duration_since(self.call).as_nanos() as u64),
            sim,
            faulted: false,
        });
        self.spans.lock().expect("span sink").extend(spans);
        self.last_exit_at(now);
    }

    fn last_exit_at(&self, now: Instant) {
        let mut last = self.last_exit.lock().expect("exit landmark");
        *last = Some(last.map_or(now, |l| l.max(now)));
    }

    /// Computes the checksum (host 0, after its worker), recording it as a
    /// span of its own.
    fn checksum<D: SimProbe>(&self, ctx: &mut D, f: impl FnOnce(&mut D) -> f64) {
        let (w0, s0) = (ns_since(self.call), ctx.sim_now());
        *self.checksum.lock().expect("checksum slot") = Some(f(ctx));
        let span = Span {
            name: "checksum",
            host: 0,
            wall: (w0, ns_since(self.call)),
            sim: (s0, ctx.sim_now()),
            faulted: false,
        };
        self.spans.lock().expect("span sink").push(span);
        self.last_exit_at(Instant::now());
    }

    /// Fills the lifecycle numbers and returns (checksum, spans).
    fn finish(self, rep: &mut Rep) -> (Option<f64>, Vec<Span>) {
        let ret = Instant::now();
        let wall = ret.duration_since(self.call);
        let setup_fn = self.setup_fn.into_inner().expect("setup landmark");
        let first = self.first_entry.get().copied().unwrap_or(ret);
        let setup = first.duration_since(self.call);
        let last = self.last_exit.into_inner().expect("exit landmark");
        let teardown = last.map_or(Duration::ZERO, |l| ret.duration_since(l));
        rep.set("wall_s", wall.as_secs_f64());
        rep.set("setup_s", setup.as_secs_f64());
        rep.set("run.setup_fn_ms", (setup_fn.1 - setup_fn.0) as f64 / 1e6);
        rep.set(
            "run.build_ms",
            (setup.as_nanos() as f64 - (setup_fn.1 - setup_fn.0) as f64) / 1e6,
        );
        rep.set("run.teardown_ms", teardown.as_secs_f64() * 1e3);
        let mut spans = self.spans.into_inner().expect("span sink");
        spans.push(Span {
            name: "setup",
            host: 0,
            wall: setup_fn,
            sim: (0, 0),
            faulted: false,
        });
        spans.push(Span {
            name: "run",
            host: 0,
            wall: (0, wall.as_nanos() as u64),
            sim: (0, 0),
            faulted: false,
        });
        let checksum = self.checksum.into_inner().expect("checksum slot");
        (checksum, spans)
    }
}

/// Capacity of each tracer ring: large enough that no event of these
/// workloads is overwritten, so the counts are complete.
const TRACE_RING: usize = 1 << 22;

fn sim_config(hosts: usize, seed: u64, traced: bool) -> ClusterConfig {
    ClusterConfig {
        hosts,
        seed,
        // Pinned here so that MILLIPAGE_DET_SCHED / MILLIPAGE_SIM_WORKERS
        // cannot change a workload: the canonical deterministic schedule,
        // one partition.
        sched: SchedMode::deterministic(),
        parallel: None,
        tracer: if traced {
            Tracer::enabled(TRACE_RING)
        } else {
            Tracer::disabled()
        },
        ..ClusterConfig::default()
    }
}

fn sor_params(w: Workload) -> sor::SorParams {
    let (rows, iters) = match w {
        Workload::HostSor2h => (16384, 10),
        _ => (2048, 4),
    };
    sor::SorParams {
        rows,
        cols: 64,
        iters,
    }
}

/// The seed of repetition `k` of a run at `seed`. The warm-up, traced and
/// probe repetitions (`k = 0`) use `seed` itself; timed repetition `k`
/// draws fresh inputs, so a run's medians cover several schedules and the
/// spread between seeds shrinks.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one repetition of `w`.
pub fn run_rep(w: Workload, seed: u64, mode: Mode) -> Rep {
    let mut rep = Rep::default();
    let before = sys::ProcSample::take();
    match w {
        Workload::Sor16h => sim_sor(&mut rep, seed, mode),
        Workload::WaterHlrc4h => sim_water(&mut rep, seed, mode),
        Workload::HostSor2h => host_sor(&mut rep, mode),
    }
    let after = sys::ProcSample::take();
    if w == Workload::HostSor2h {
        rep.set(
            "host.fds_leaked_per_run",
            after.fds as f64 - before.fds as f64,
        );
        rep.set("host.rss_growth_mb_per_run", after.rss_mb - before.rss_mb);
    }
    rep.set("hwm_mb", after.hwm_mb);
    if mode == Mode::Traced {
        summarize_spans(&mut rep);
    }
    rep
}

fn sim_sor(rep: &mut Rep, seed: u64, mode: Mode) {
    let p = sor_params(Workload::Sor16h);
    let mut cfg = sim_config(16, seed, mode == Mode::Traced);
    // Sized like the apps' own `run_sor`.
    cfg.pages = cfg.pages.max(p.cols * p.rows * 4 / 4096 * 2 + 64);
    cfg.views = cfg.views.max((4096 / (p.cols * 4)).clamp(1, 32));
    let tracer = cfg.tracer.clone();
    let lm = Landmarks::new();
    let timed = TimedAgg::new();
    let traced = mode == Mode::Traced;
    let report = run(
        cfg,
        |s| lm.setup(|| sor::setup(s, p)),
        |ctx, sh| {
            let entered = lm.enter();
            if mode == Mode::Probe {
                return lm.exit(ctx.host().index() as u16, entered, (0, 0), Vec::new());
            }
            let sim0 = ctx.now();
            let mut spans = Vec::new();
            if traced {
                let mut t = Traced::new(ctx, lm.call);
                sor::worker(&mut t, sh);
                spans = t.spans;
            } else {
                sor::worker(ctx, sh);
            }
            timed.record(ctx);
            let sim = (sim0, ctx.now());
            lm.exit(ctx.host().index() as u16, entered, sim, spans);
            if ctx.host().index() == 0 {
                lm.checksum(ctx, |c| sor::checksum(c, sh));
            }
        },
    );
    let (checksum, spans) = lm.finish(rep);
    check_checksum(rep, mode, checksum, sor::reference(p), 1e-6);
    sim_report(rep, &report, timed, checksum, &tracer, traced);
    rep.spans = spans;
}

fn sim_water(rep: &mut Rep, seed: u64, mode: Mode) {
    let p = water::WaterParams {
        molecules: 512,
        steps: 2,
        seed,
        ..water::WaterParams::paper()
    };
    let mut cfg = sim_config(4, seed, mode == Mode::Traced);
    cfg.consistency = Consistency::HomeEagerRc;
    // Sized like the apps' own `run_water`.
    cfg.pages = cfg
        .pages
        .max(p.molecules * water::MOL_F64S * 8 / 4096 * 3 + 64);
    cfg.views = cfg.views.max(6);
    let tracer = cfg.tracer.clone();
    let lm = Landmarks::new();
    let timed = TimedAgg::new();
    let report = run(
        cfg,
        |s| lm.setup(|| water::setup(s, p)),
        |ctx, sh| {
            let entered = lm.enter();
            if mode == Mode::Probe {
                return lm.exit(ctx.host().index() as u16, entered, (0, 0), Vec::new());
            }
            let sim0 = ctx.now();
            // WATER's worker takes `HostCtx` itself, not the `Dsm` trait,
            // so its individual calls cannot be intercepted.
            water::worker(ctx, sh);
            timed.record(ctx);
            let sim = (sim0, ctx.now());
            lm.exit(ctx.host().index() as u16, entered, sim, Vec::new());
            if ctx.host().index() == 0 {
                lm.checksum(ctx, |c| water::checksum(c, sh));
            }
        },
    );
    let (checksum, spans) = lm.finish(rep);
    check_checksum(rep, mode, checksum, water::reference(p), 1e-9);
    sim_report(rep, &report, timed, checksum, &tracer, mode == Mode::Traced);
    rep.spans = spans;
}

fn host_sor(rep: &mut Rep, mode: Mode) {
    let p = sor_params(Workload::HostSor2h);
    // Sized like the apps' own `run_sor_host`.
    let cfg = HostRunConfig {
        hosts: 2,
        views: (4096 / (p.cols * 4)).clamp(1, 32),
        pages: p.cols * p.rows * 4 / 4096 * 2 + 64,
        ..HostRunConfig::default()
    };
    let lm = Landmarks::new();
    let traced = mode == Mode::Traced;
    let result = run_host(
        cfg,
        |s| lm.setup(|| sor::setup(s, p)),
        |ctx, sh| {
            let entered = lm.enter();
            if mode == Mode::Probe {
                return lm.exit(ctx.host().index() as u16, entered, (0, 0), Vec::new());
            }
            let mut spans = Vec::new();
            if traced {
                let mut t = Traced::new(ctx, lm.call);
                sor::worker(&mut t, sh);
                spans = t.spans;
            } else {
                sor::worker(ctx, sh);
            }
            lm.exit(ctx.host().index() as u16, entered, (0, 0), spans);
            if ctx.host().index() == 0 {
                lm.checksum(ctx, |c| sor::checksum(c, sh));
            }
        },
    );
    let (checksum, spans) = lm.finish(rep);
    rep.spans = spans;
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            rep.errors.push(format!("run_host: {e}"));
            return;
        }
    };
    check_checksum(rep, mode, checksum, sor::reference(p), 1e-6);
    rep.errors.extend(report.errors.iter().cloned());
    rep.set("timed_ms", report.wall.as_secs_f64() * 1e3);
    let total = |v: &[u64]| v.iter().sum::<u64>() as f64;
    rep.set("host.read_faults", total(&report.read_faults));
    rep.set("host.write_faults", total(&report.write_faults));
    rep.set("host.invalidations", total(&report.invalidations));
}

fn check_checksum(rep: &mut Rep, mode: Mode, got: Option<f64>, want: f64, rel: f64) {
    match got {
        // A probe computes nothing.
        None if mode == Mode::Probe => {}
        Some(g) if close(g, want, rel) => {}
        Some(g) => rep
            .errors
            .push(format!("checksum {g} differs from reference {want}")),
        None => rep.errors.push("no checksum computed".to_string()),
    }
}

/// Reads the protocol layer's numbers out of the `RunReport` and builds
/// the fingerprint the determinism gate compares.
fn sim_report(
    rep: &mut Rep,
    r: &RunReport,
    timed: TimedAgg,
    checksum: Option<f64>,
    tracer: &Tracer,
    traced: bool,
) {
    rep.errors.extend(
        r.coherence_violations
            .iter()
            .map(|v| format!("coherence: {v}")),
    );
    rep.errors
        .extend(r.protocol_errors.iter().map(|e| format!("protocol: {e}")));
    let (timed_ns, bd) = timed.take();
    let us = |h: &millipage::LogHistogram| h.mean().unwrap_or(0.0) / 1e3;
    let ms = |c: Category| bd.get(c) as f64 / 1e6;
    rep.set("timed_ms", timed_ns as f64 / 1e6);
    rep.set("sim.virtual_s", r.virtual_time as f64 / 1e9);
    rep.set("proto.messages", r.messages as f64);
    rep.set("proto.payload_kb", r.payload_bytes as f64 / 1024.0);
    rep.set("proto.read_faults", r.read_faults as f64);
    rep.set("proto.write_faults", r.write_faults as f64);
    rep.set("proto.invalidations", r.invalidations as f64);
    rep.set("proto.competing_requests", r.competing_requests as f64);
    rep.set("proto.rc_diffs", r.rc_diffs as f64);
    rep.set("proto.lock_acquires", r.lock_acquires as f64);
    rep.set("proto.fault_mean_us", us(&r.fault_latency));
    rep.set("proto.server_queue_mean_us", us(&r.server_queue_delay));
    rep.set("proto.inv_rtt_mean_us", us(&r.inv_round_trip));
    rep.set("virt.comp_ms", ms(Category::Comp));
    rep.set("virt.read_fault_ms", ms(Category::ReadFault));
    rep.set("virt.write_fault_ms", ms(Category::WriteFault));
    rep.set("virt.synch_ms", ms(Category::Synch));
    let hist = |h: &millipage::LogHistogram| format!("{}/{:?}", h.count(), h.mean());
    rep.fingerprint = Some(format!(
        "timed_ns={timed_ns},vt={},msgs={},bytes={},rf={},wf={},inv={},comp={},diffs={},locks={},\
         barriers={},pf={},bd={:?},lat={},queue={},inv_rtt={},checksum={:?}",
        r.virtual_time,
        r.messages,
        r.payload_bytes,
        r.read_faults,
        r.write_faults,
        r.invalidations,
        r.competing_requests,
        r.rc_diffs,
        r.lock_acquires,
        r.barriers,
        r.prefetches,
        Category::ALL.map(|c| bd.get(c)),
        hist(&r.fault_latency),
        hist(&r.server_queue_delay),
        hist(&r.inv_round_trip),
        checksum.map(f64::to_bits),
    ));
    if traced {
        let log = tracer.drain();
        if log.dropped > 0 {
            rep.errors
                .push(format!("tracer overwrote {} events", log.dropped));
        }
        let count = |k: TraceKind| log.events.iter().filter(|e| e.kind == k).count() as f64;
        rep.set("trace.forward", count(TraceKind::Forward));
        rep.set("trace.req_queued", count(TraceKind::ReqQueued));
        rep.set("trace.inv_send", count(TraceKind::InvSend));
        rep.set("trace.rc_diff_send", count(TraceKind::RcDiffSend));
    }
}

/// The `Dsm` call kinds the per-layer metrics break out.
pub const DSM_KINDS: [&str; 3] = ["read", "write", "barrier"];

/// Per-kind `Dsm` call statistics and application self time from a
/// traced repetition's spans.
fn summarize_spans(rep: &mut Rep) {
    let mut vals = Vec::new();
    for kind in DSM_KINDS {
        let calls: Vec<&Span> = rep.spans.iter().filter(|s| s.name == kind).collect();
        let wall: Vec<f64> = calls.iter().map(|s| s.wall_us()).collect();
        // A barrier never faults; its simulated wait is what matters.
        let sim: Vec<f64> = calls
            .iter()
            .filter(|s| s.faulted || kind == "barrier")
            .map(|s| s.sim_us())
            .collect();
        let faults = calls.iter().filter(|s| s.faulted).count();
        let p50 = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
        let pmax = |xs: &[f64]| stats::pmax(xs).map_or(0.0, |(v, _)| v);
        vals.push((format!("dsm.{kind}.calls"), calls.len() as f64));
        vals.push((format!("dsm.{kind}.wall_us_p50"), p50(&wall)));
        vals.push((format!("dsm.{kind}.wall_us_pmax"), pmax(&wall)));
        vals.push((format!("dsm.{kind}.fault_calls"), faults as f64));
        vals.push((format!("dsm.{kind}.sim_us_p50"), p50(&sim)));
        vals.push((format!("dsm.{kind}.sim_us_pmax"), pmax(&sim)));
        if let Some((_, pct)) = stats::pmax(&wall) {
            vals.push((format!("dsm.{kind}.pmax_pct"), pct));
        }
    }
    let is_dsm = |s: &&Span| DSM_KINDS.contains(&s.name) || s.name == "compute";
    let self_ns: u64 = rep
        .spans
        .iter()
        .filter(|s| s.name == "worker")
        .map(|w| {
            let kids: Vec<Interval> = rep
                .spans
                .iter()
                .filter(is_dsm)
                .filter(|s| s.host == w.host)
                .map(|s| s.wall)
                .collect();
            stats::self_time(w.wall, &kids)
        })
        .sum();
    let any_dsm = rep.spans.iter().any(|s| is_dsm(&s));
    vals.push((
        "app.self_ms".to_string(),
        if any_dsm { self_ns as f64 / 1e6 } else { 0.0 },
    ));
    for (k, v) in vals {
        rep.vals.insert(k, v);
    }
}
