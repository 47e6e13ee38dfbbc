//! The repository benchmark: runs one named workload at a seed, checks
//! every repetition, and prints each end-to-end (`--trace 0`) or
//! per-layer (`--trace 1`) metric by name with its unit. The last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! ```text
//! perfbench --workload sor-16h --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The benchmark re-runs its own executable as child processes: set-up
//! probes, each a cold process, and the measuring processes. See
//! README.md in this directory for every metric and workload.

mod stats;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{run_rep, sub_seed, Mode, Rep, Workload, DSM_KINDS, HOST_TIMED_PER_PROCESS};

/// Cold processes per run that each measure set-up once.
const PROBES: usize = 5;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("timed_ms", "ms"),
    ("max_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) other than the `dsm.*` family: name
/// and unit. A layer a workload does not have reads 0.
const LAYERS: [(&str, &str); 31] = [
    ("sched.wall_us_per_msg", "us"),
    ("sched.wall_s_per_sim_s", "s/s"),
    ("run.build_ms", "ms"),
    ("run.setup_fn_ms", "ms"),
    ("run.teardown_ms", "ms"),
    ("app.self_ms", "ms"),
    ("proto.messages", "count"),
    ("proto.payload_kb", "KiB"),
    ("proto.read_faults", "count"),
    ("proto.write_faults", "count"),
    ("proto.invalidations", "count"),
    ("proto.competing_requests", "count"),
    ("proto.rc_diffs", "count"),
    ("proto.lock_acquires", "count"),
    ("proto.fault_mean_us", "us"),
    ("proto.server_queue_mean_us", "us"),
    ("proto.inv_rtt_mean_us", "us"),
    ("virt.comp_ms", "ms"),
    ("virt.read_fault_ms", "ms"),
    ("virt.write_fault_ms", "ms"),
    ("virt.synch_ms", "ms"),
    ("host.read_faults", "count"),
    ("host.write_faults", "count"),
    ("host.invalidations", "count"),
    ("host.fds_leaked_per_run", "count"),
    ("host.rss_growth_mb_per_run", "MB"),
    ("trace.forward", "count"),
    ("trace.req_queued", "count"),
    ("trace.inv_send", "count"),
    ("trace.rc_diff_send", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The `dsm.<kind>.*` metrics: suffix and unit.
const DSM_STATS: [(&str, &str); 6] = [
    ("calls", "count"),
    ("wall_us_p50", "us"),
    ("wall_us_pmax", "us"),
    ("fault_calls", "count"),
    ("sim_us_p50", "us"),
    ("sim_us_pmax", "us"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&args) {
        Ok(a) => match &a.child {
            Some(role) => child(&a, role),
            None => parent(&a),
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    /// Set in a child process: its role (`probe`, `main` or `traced`).
    child: Option<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut kv = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| {
                    ["workload", "seed", "seconds", "trace", "child", "budget-ms"].contains(k)
                })
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            kv.insert(key, val.as_str());
        }
        let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
        let num = |k: &str| {
            get(k)?
                .parse::<u64>()
                .map_err(|_| format!("--{k} must be a whole number"))
        };
        let workload = get("workload")?;
        let budget = if kv.contains_key("budget-ms") {
            Duration::from_millis(num("budget-ms")?)
        } else {
            Duration::from_secs(num("seconds")?)
        };
        if budget.is_zero() {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Self {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?,
            seed: num("seed")?,
            budget,
            trace: match kv.get("trace").copied().unwrap_or("0") {
                "0" => false,
                "1" => true,
                t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
            },
            child: kv.get("child").map(|r| r.to_string()),
        })
    }
}

// ---------------------------------------------------------------------------
// Child processes: run repetitions, print one `rep` line each.
// ---------------------------------------------------------------------------

fn child(a: &Args, role: &str) -> ExitCode {
    let start = Instant::now();
    let (w, seed) = (a.workload, a.seed);
    // The deterministic simulator runs one thread at a time and hands off
    // between OS threads at every step. On one CPU a handoff is a local
    // context switch; across CPUs it waits for the other CPU to wake, which
    // swings with the machine's load and made wall times drift by 25%
    // between runs. The host backend's threads run in parallel: not pinned.
    if w.is_sim() && sys::pin_to_one_cpu().is_none() {
        eprintln!("perfbench: cannot pin the simulator to one CPU");
        return ExitCode::FAILURE;
    }
    match role {
        "probe" => emit("probe", 0, &run_rep(w, seed, Mode::Probe)),
        "main" => {
            let warm = Instant::now();
            emit("warmup", 0, &run_rep(w, seed, Mode::Plain));
            let mut last = warm.elapsed();
            let fixed = w.sim_timed_reps(a.budget);
            let mut k = 0u64;
            // A fixed count on the simulator (cut short only on a machine
            // far slower than the nominal one); on the host at least one,
            // and another while half of it is expected to fit.
            while match fixed {
                Some(n) => k < n && start.elapsed() + last <= a.budget * 3 / 2,
                None => {
                    k == 0 || (k < HOST_TIMED_PER_PROCESS && start.elapsed() + last / 2 <= a.budget)
                }
            } {
                let t = Instant::now();
                emit(
                    "timed",
                    k + 1,
                    &run_rep(w, sub_seed(seed, k + 1), Mode::Plain),
                );
                last = t.elapsed();
                k += 1;
            }
        }
        "traced" => {
            emit("warmup", 0, &run_rep(w, seed, Mode::Plain));
            let rep = run_rep(w, seed, Mode::Traced);
            if let Err(e) = write_spans(w, &rep) {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
            emit("traced", 0, &rep);
        }
        r => {
            eprintln!("perfbench: unknown child role {r:?}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Prints one repetition, run with sub-seed `k`, as a tab-separated
/// `key=value` line.
fn emit(role: &str, k: u64, rep: &Rep) {
    let clean = |s: &str| s.replace(['\t', '\n'], " ");
    let mut line = format!(
        "rep\trole={role}\tsub={k}\tok={}",
        u8::from(rep.errors.is_empty())
    );
    if let Some(fp) = &rep.fingerprint {
        line += &format!("\tfp={fp}");
    }
    if !rep.errors.is_empty() {
        line += &format!("\terr={}", clean(&rep.errors.join(" | ")));
    }
    for (k, v) in &rep.vals {
        line += &format!("\t{k}={v}");
    }
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .expect("stdout");
}

/// Writes a traced repetition's spans as TSV under `out/` in the
/// benchmark's directory.
fn write_spans(w: Workload, rep: &Rep) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("{}.spans.tsv", w.name())))?;
    let mut f = std::io::BufWriter::new(file);
    writeln!(
        f,
        "name\thost\tparent\twall_start_ns\twall_end_ns\tsim_start_ns\tsim_end_ns\tfaulted"
    )?;
    for s in &rep.spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.host,
            s.parent(),
            s.wall.0,
            s.wall.1,
            s.sim.0,
            s.sim.1,
            u8::from(s.faulted)
        )?;
    }
    f.flush()
}

// ---------------------------------------------------------------------------
// The parent: spawn children, gate, aggregate, report.
// ---------------------------------------------------------------------------

/// One repetition as read back from a child.
struct Parsed {
    role: String,
    sub: u64,
    ok: bool,
    fingerprint: Option<String>,
    err: Option<String>,
    vals: BTreeMap<String, f64>,
}

impl Parsed {
    fn parse(line: &str) -> Option<Self> {
        let mut fields = line.strip_prefix("rep\t")?.split('\t');
        let mut p = Parsed {
            role: String::new(),
            sub: 0,
            ok: false,
            fingerprint: None,
            err: None,
            vals: BTreeMap::new(),
        };
        for f in fields.by_ref() {
            let (k, v) = f.split_once('=')?;
            match k {
                "role" => p.role = v.to_string(),
                "sub" => p.sub = v.parse().ok()?,
                "ok" => p.ok = v == "1",
                "fp" => p.fingerprint = Some(v.to_string()),
                "err" => p.err = Some(v.to_string()),
                _ => {
                    p.vals.insert(k.to_string(), v.parse().ok()?);
                }
            }
        }
        Some(p)
    }

    fn get(&self, k: &str) -> f64 {
        self.vals.get(k).copied().unwrap_or(0.0)
    }
}

struct Runs {
    reps: Vec<Parsed>,
    /// Children that exited abnormally (each counts as one failed
    /// repetition, on top of any it printed).
    crashed: usize,
}

impl Runs {
    fn spawn(&mut self, a: &Args, role: &str, budget: Duration) {
        let exe = std::env::current_exe().expect("own executable path");
        let out = Command::new(exe)
            .args(["--child", role, "--workload", a.workload.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--budget-ms", &budget.as_millis().max(1).to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(o) => {
                let text = String::from_utf8_lossy(&o.stdout);
                self.reps.extend(text.lines().filter_map(Parsed::parse));
                if !o.status.success() {
                    eprintln!("perfbench: {role} process failed: {}", o.status);
                    self.crashed += 1;
                }
            }
            Err(e) => {
                eprintln!("perfbench: cannot start {role} process: {e}");
                self.crashed += 1;
            }
        }
    }

    fn values(&self, role: &str, key: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| r.role == role && r.vals.contains_key(key))
            .map(|r| r.get(key))
            .collect()
    }

    /// `f` of every timed repetition.
    fn per_timed(&self, f: impl Fn(&Parsed) -> f64) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| r.role == "timed")
            .map(f)
            .collect()
    }

    fn first(&self, role: &str) -> Option<&Parsed> {
        self.reps.iter().find(|r| r.role == role)
    }
}

fn parent(a: &Args) -> ExitCode {
    let w = a.workload;
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} git={}",
        w.name(),
        a.seed,
        a.budget.as_secs_f64(),
        u8::from(a.trace),
        sys::nproc(),
        sys::git_revision(&repo)
    );
    let start = Instant::now();
    let left = || a.budget.saturating_sub(start.elapsed());
    let mut runs = Runs {
        reps: Vec::new(),
        crashed: 0,
    };
    for _ in 0..PROBES {
        runs.spawn(a, "probe", left());
    }
    // The simulator's repetition count follows from the whole budget, not
    // from what the probes left of it, so it is the same on every run.
    let main_budget = |share: u32| {
        if w.is_sim() {
            a.budget / share
        } else {
            left() / share
        }
    };
    if a.trace {
        runs.spawn(a, "main", main_budget(2));
        runs.spawn(a, "traced", left());
    } else {
        // Simulator runs repeat in one process; host runs are split over
        // processes (see `HOST_TIMED_PER_PROCESS`).
        loop {
            let t = Instant::now();
            runs.spawn(a, "main", main_budget(1));
            if w.is_sim() || t.elapsed() / 2 > left() {
                break;
            }
        }
    }

    // Correctness and determinism gate over every repetition.
    let configs: Vec<String> = runs
        .reps
        .iter()
        .map(|r| match r.role.as_str() {
            "probe" => "probe".to_string(),
            _ => format!("seed/{}", r.sub),
        })
        .collect();
    let diverging = stats::diverging(
        configs
            .iter()
            .zip(&runs.reps)
            .map(|(c, r)| (c.as_str(), r.fingerprint.as_deref())),
    );
    let mut failed = runs.crashed;
    for (i, r) in runs.reps.iter().enumerate() {
        if let Some(e) = &r.err {
            println!("FAILED {} repetition {i}: {e}", r.role);
        }
        if diverging.contains(&i) {
            println!(
                "FAILED {} repetition {i}: diverged from the first run",
                r.role
            );
        }
        failed += usize::from(!r.ok || diverging.contains(&i));
    }
    let attempted = runs.reps.len() + runs.crashed;
    if let Some(fp) = runs.first("warmup").and_then(|r| r.fingerprint.as_deref()) {
        println!("fingerprint {:016x}  {fp}", fnv64(fp));
    }

    let metrics = if a.trace {
        per_layer(&runs)
    } else {
        end_to_end(&runs)
    };
    println!("failed_runs {failed} of {attempted} repetitions");
    let correct = failed == 0 && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints a metric's median next to the values it was taken from.
fn report(name: &str, unit: &str, xs: &[f64]) -> f64 {
    let m = stats::median(xs).unwrap_or(0.0);
    let each: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    println!(
        "{name:<30} {m:>14.6} {unit:<6} n={} [{}]",
        xs.len(),
        each.join(" ")
    );
    m
}

fn end_to_end(runs: &Runs) -> Vec<(String, &'static str, f64)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let xs = match name {
                "setup_s" => runs.values("probe", "setup_s"),
                "max_rss_mb" => runs.values("warmup", "hwm_mb"),
                // Simulated time does not warm up: the warm-up's inputs
                // count too.
                "timed_ms"
                    if runs
                        .first("warmup")
                        .is_some_and(|r| r.fingerprint.is_some()) =>
                {
                    let mut xs = runs.values("warmup", name);
                    xs.extend(runs.values("timed", name));
                    xs
                }
                _ => runs.values("timed", name),
            };
            (name.to_string(), unit, report(name, unit, &xs))
        })
        .collect()
}

fn per_layer(runs: &Runs) -> Vec<(String, &'static str, f64)> {
    let wall = stats::median(&runs.values("timed", "wall_s")).unwrap_or(0.0);
    let traced = runs.first("traced");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let from = |r: Option<&Parsed>, k: &str| r.map_or(0.0, |r| r.get(k));
    let mut out = Vec::new();
    for (name, unit) in LAYERS {
        let xs = match name {
            "sched.wall_us_per_msg" => {
                runs.per_timed(|r| ratio(r.get("wall_s") * 1e6, r.get("proto.messages")))
            }
            "sched.wall_s_per_sim_s" => {
                runs.per_timed(|r| ratio(r.get("wall_s"), r.get("sim.virtual_s")))
            }
            "run.build_ms" | "run.setup_fn_ms" => runs.values("probe", name),
            "run.teardown_ms" => runs.values("timed", name),
            "trace.overhead_ratio" => vec![ratio(from(traced, "wall_s"), wall)],
            n if n.starts_with("host.") => runs.values("timed", n),
            // The rest from the traced repetition at `--seed`, whose
            // protocol counts the gate holds equal to the untraced ones.
            n => vec![from(traced, n)],
        };
        out.push((name.to_string(), unit, report(name, unit, &xs)));
    }
    for kind in DSM_KINDS {
        for (stat, unit) in DSM_STATS {
            let name = format!("dsm.{kind}.{stat}");
            let v = report(&name, unit, &[from(traced, &name)]);
            out.push((name, unit, v));
        }
        let pct = from(traced, &format!("dsm.{kind}.pmax_pct"));
        if pct > 0.0 {
            println!(
                "{:<30} pmax is the p{pct:.3} of the wall times",
                format!("dsm.{kind}")
            );
        }
    }
    out
}

/// A JSON number: non-finite values (which JSON cannot hold) read 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// FNV-1a, to print a short handle on a run's fingerprint.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
