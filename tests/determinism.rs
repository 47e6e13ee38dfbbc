//! Determinism of the cooperative scheduler: with `SchedMode::
//! deterministic()`, one seed is one interleaving — two runs of the same
//! configuration must produce byte-identical protocol traces and
//! byte-identical reports, for every home policy, both consistency
//! modes, and with the fault plane off and on. This is the property the
//! whole exploration/replay stack rests on: if the canonical schedule
//! drifted between runs, recorded reproducers would be meaningless.

use millipage::{
    run, AllocMode, ChromeTrace, ClusterConfig, Consistency, HomePolicyKind, HostId, SchedMode,
    Tracer, WireFaults,
};
use millipage_apps::sor::{self, SorParams};

const POLICIES: [HomePolicyKind; 3] = [
    HomePolicyKind::Centralized,
    HomePolicyKind::Interleaved,
    HomePolicyKind::FirstTouch,
];

/// The acceptance fault mix (1% drop + 0.5% dup + 2% reorder): the fault
/// plane's per-link RNG streams are seeded, so even a faulty wire must
/// replay identically.
fn lossy_plane() -> WireFaults {
    WireFaults::lossy(13, 0.01, 0.005, 0.02)
}

/// One run under the deterministic scheduler, rendered to bytes: the
/// full Chrome-trace export plus the `RunReport` JSON dump. Anything
/// schedule-dependent — fault interleavings, lock grant order, queue
/// depths, histograms, virtual times — feeds into one of the two.
fn run_to_bytes(policy: HomePolicyKind, consistency: Consistency, faults: WireFaults) -> String {
    let tracer = Tracer::enabled(1 << 14);
    let cfg = ClusterConfig {
        hosts: 4,
        views: 8,
        pages: 64,
        alloc_mode: AllocMode::FINE,
        consistency,
        home_policy: policy,
        tracer: tracer.clone(),
        seed: 13,
        faults,
        sched: SchedMode::deterministic(),
        ..ClusterConfig::default()
    };
    let report = run(
        cfg,
        |s| {
            let cells = (0..8)
                .map(|_| s.alloc_vec_init(&[0u64; 2]))
                .collect::<Vec<_>>();
            let counter = s.alloc_cell_init::<u64>(0);
            (cells, counter)
        },
        |ctx, (cells, counter)| {
            for phase in 0..3u64 {
                if ctx.host() == HostId((phase as usize % ctx.hosts()) as u16) {
                    for (i, c) in cells.iter().enumerate() {
                        let v = ctx.get(c, 0);
                        ctx.set(c, 0, v + phase + i as u64);
                    }
                }
                ctx.barrier();
            }
            ctx.lock(1);
            let v = ctx.cell_get(counter);
            ctx.cell_set(counter, v + 1);
            ctx.unlock(1);
            ctx.barrier();
            ctx.prefetch_vec(&cells[0]);
            let _ = ctx.get(&cells[0], 1);
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
        "{policy:?}/{consistency:?}: {:?} {:?}",
        report.coherence_violations,
        report.protocol_errors
    );
    let log = tracer.drain();
    assert_eq!(log.dropped, 0, "{policy:?}/{consistency:?}: ring overflow");
    let mut chrome = ChromeTrace::new();
    chrome.add_run("determinism", 0, &log.events);
    format!("{}\n{}", chrome.finish(), report.to_json())
}

fn assert_deterministic(faults: fn() -> WireFaults) {
    for policy in POLICIES {
        for consistency in [Consistency::SequentialSwMr, Consistency::HomeEagerRc] {
            let a = run_to_bytes(policy, consistency, faults());
            let b = run_to_bytes(policy, consistency, faults());
            // Byte equality of trace + report; on mismatch report where
            // the runs diverged rather than dumping two traces.
            if a != b {
                let at = a
                    .bytes()
                    .zip(b.bytes())
                    .position(|(x, y)| x != y)
                    .unwrap_or(a.len().min(b.len()));
                let lo = at.saturating_sub(80);
                panic!(
                    "{policy:?}/{consistency:?}: runs diverged at byte {at}:\n  a: …{}\n  b: …{}",
                    &a[lo..(at + 80).min(a.len())],
                    &b[lo..(at + 80).min(b.len())]
                );
            }
        }
    }
}

/// Perfect wire: same seed, same trace, same report — bytes for bytes.
#[test]
fn same_seed_same_bytes_perfect_wire() {
    assert_deterministic(WireFaults::disabled);
}

/// Faulty wire: drops, duplicates and reorders are themselves seeded, so
/// the retransmit storms replay identically too.
#[test]
fn same_seed_same_bytes_lossy_wire() {
    assert_deterministic(lossy_plane);
}

/// The scheduler's work per simulated message stays flat as the cluster
/// grows. Wake-ups are per host, so an action re-examines only the
/// threads of the host it touched. A coarser key (one counter per
/// partition) makes every blocked thread re-check after every action,
/// and the ratio then grows linearly with the host count (9.2 at 4
/// hosts, 79.6 at 32). Steps and messages are both fixed by the
/// canonical schedule, so the bound is checked exactly.
#[test]
fn scheduler_steps_per_message_stay_flat() {
    let params = SorParams {
        rows: 2048,
        cols: 64,
        iters: 4,
    };
    for hosts in [4, 8, 16, 32] {
        let cfg = ClusterConfig {
            hosts,
            sched: SchedMode::deterministic(),
            parallel: None,
            ..ClusterConfig::default()
        };
        let r = sor::run_sor(cfg, params).report;
        assert!(r.coherence_violations.is_empty(), "{hosts} hosts");
        let per_msg = r.sched_steps as f64 / r.messages.max(1) as f64;
        assert!(
            per_msg <= 3.5,
            "{hosts} hosts: {} steps ({} futile re-checks) for {} messages = {per_msg:.2} per message",
            r.sched_steps,
            r.sched_rechecks,
            r.messages
        );
    }
}
