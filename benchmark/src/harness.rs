//! The six workloads and the per-run protocol: output checks, then the
//! timed phase with tracing off — cut into segments, each with its own
//! set-ups, warm-up and operations — and, in a traced run, one traced
//! operation, one `parallelism = 1` operation and the layer probes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use crate::api::{
    self, Corpus, Facts, Family, Input, Json, Mode, Probe, Resolved, Runtime, Session,
};
use crate::registry::Registry;
use crate::spans::{Span, Spans};
use crate::stats::{self, Summary};

/// Default workload seed (the paper's year).
pub const DEFAULT_SEED: u64 = 2012;
/// Share of a workload's nominal size its oracle-checked sibling has
/// (RepSN needs `w - 1` entities in each of its 32 ranges, so the
/// sibling cannot be much smaller).
const SIBLING_SCALE: f64 = 0.1;
/// Segments the timed phase of an untraced run is cut into. Each sets
/// the workload up afresh, so set-ups as well as operations are sampled
/// over the whole run and a slow stretch of the host cannot cover every
/// sample of either.
const SEGMENTS: usize = 8;
/// Set-ups at the start of a segment, each dropped before the next.
const SETUPS_PER_SEGMENT: usize = 3;
/// Timed operations of a traced run (its untraced reference).
const TRACED_RUN_TIMED: usize = 10;
/// Recall floor of the approximate families against gold. Both read
/// 0.90–0.97 over twenty seeds; a corpus of this size holds a few hundred
/// injected duplicates, so one seed's recall is a sample whose standard
/// deviation is about 0.02, and a floor of 0.9 would fail a seed in
/// twenty for no fault of the program.
const RECALL_FLOOR: f64 = 0.85;
/// Failed operations after which a run gives up.
const MAX_FAILED_OPS: u64 = 5;
/// Pairs the compare probe evaluates at scale factor 1.
const COMPARE_PROBE_PAIRS: f64 = 1e6;
/// Empty tasks the dispatch probe pushes through the pool.
const DISPATCH_PROBE_TASKS: usize = 10_000;
/// First display lane of tenant threads and of pool slots.
const TENANT_LANE: usize = 1;
const SLOT_LANE: usize = 16;

/// How a part's corpus is made; sizes are nominal (scale factor 1).
#[derive(Debug, Clone, Copy)]
pub enum CorpusSpec {
    /// `generate_products(ds1_spec(seed).scaled(scale))`.
    Products { scale: f64 },
    /// The `fig_lsh` recipe with this many originals.
    LshRecipe { originals: usize },
}

impl CorpusSpec {
    fn generate(self, seed: u64, factor: f64) -> Corpus {
        match self {
            CorpusSpec::Products { scale } => api::products(seed, scale * factor),
            CorpusSpec::LshRecipe { originals } => {
                api::lsh_corpus(seed, ((originals as f64 * factor).round() as usize).max(12))
            }
        }
    }
}

/// One (scenario, corpus) pairing a workload resolves.
#[derive(Debug, Clone, Copy)]
pub struct Part {
    pub family: Family,
    pub corpus: CorpusSpec,
}

/// One workload. An *operation* is a single resolve of `parts[0]`, or
/// — with `tenants > 0` — a batch: that many closed-loop tenant
/// threads on one shared runtime, each resolving every part once, in
/// an order rotated by its tenant number.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub parts: Vec<Part>,
    pub tenants: usize,
    /// Whether a traced run also runs the operation at `parallelism = 1`.
    pub p1_run: bool,
    /// DS1 under exact blocking: precision = recall = 1 against gold
    /// and `comparisons == bdm.total_pairs()`.
    pub exact: bool,
    /// Recall floor against gold.
    pub min_recall: Option<f64>,
}

/// Worker threads of every run: `min(nproc, 4)`.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn parallelism() -> usize {
    cores().min(4)
}

/// The six workloads, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Workload> {
    let single = |name, family, corpus| Workload {
        name,
        parts: vec![Part { family, corpus }],
        tenants: 0,
        p1_run: true,
        exact: false,
        min_recall: None,
    };
    let ds1 = CorpusSpec::Products { scale: 0.125 };
    vec![
        Workload {
            exact: true,
            ..single("ds1_blocksplit", Family::BlockSplit, ds1)
        },
        Workload {
            exact: true,
            // The p = 1 run would double the traced run's length; the
            // BlockSplit twin measures the same compare layer at p = 1.
            p1_run: false,
            ..single("ds1_pairrange", Family::PairRange, ds1)
        },
        single(
            "scan_smallblocks",
            Family::ScanSku,
            CorpusSpec::Products { scale: 0.4 },
        ),
        Workload {
            min_recall: Some(RECALL_FLOOR),
            ..single(
                "sn_repsn",
                Family::RepSn { window: 20 },
                CorpusSpec::Products { scale: 0.1 },
            )
        },
        Workload {
            min_recall: Some(RECALL_FLOOR),
            ..single(
                "lsh_8x4",
                Family::Lsh { bands: 8, rows: 4 },
                CorpusSpec::LshRecipe { originals: 5_700 },
            )
        },
        Workload {
            name: "tenants_mixed",
            parts: vec![
                Part {
                    family: Family::ScanSku,
                    corpus: CorpusSpec::Products { scale: 0.1 },
                },
                Part {
                    family: Family::RepSn { window: 10 },
                    corpus: CorpusSpec::Products { scale: 0.05 },
                },
                Part {
                    family: Family::BlockSplit,
                    corpus: CorpusSpec::Products { scale: 0.02 },
                },
            ],
            tenants: parallelism(),
            p1_run: false,
            exact: false,
            min_recall: None,
        },
    ]
}

/// The workload of that name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Multiplies every corpus size (1.0 = the sizes the README states).
    pub scale_factor: f64,
    pub traced: bool,
}

/// One output check and how it came out.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub note: String,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub args: RunArgs,
    pub ops: u64,
    pub failed_ops: u64,
    pub digest: u64,
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) by name.
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer metrics (traced run) by name.
    pub per_layer: BTreeMap<String, f64>,
    pub spans: Spans,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed_ops == 0 && self.checks.iter().all(|c| c.ok)
    }
}

struct PreparedPart {
    family: Family,
    corpus: Corpus,
    input: Input,
}

/// A set-up workload: corpora generated and partitioned, runtime up.
struct Prepared {
    runtime: Runtime,
    parts: Vec<PreparedPart>,
}

impl Prepared {
    fn new(workload: &Workload, seed: u64, factor: f64, spans: &mut Spans) -> Self {
        spans.scope("setup", |spans| {
            let corpora: Vec<Corpus> = spans.scope("datagen.generate", |_| {
                workload
                    .parts
                    .iter()
                    .map(|p| p.corpus.generate(seed, factor))
                    .collect()
            });
            let inputs: Vec<Input> = spans.scope("datagen.partition", |_| {
                corpora.iter().map(api::partition).collect()
            });
            let runtime = spans.scope("runtime.new", |_| api::runtime(parallelism()));
            let prepared = Prepared {
                runtime,
                parts: workload
                    .parts
                    .iter()
                    .zip(corpora)
                    .zip(inputs)
                    .map(|((part, corpus), input)| PreparedPart {
                        family: part.family,
                        corpus,
                        input,
                    })
                    .collect(),
            };
            // Building the sessions is part of set-up; they borrow the
            // runtime, so the ones a run uses are rebuilt by the caller.
            black_box(prepared.sessions());
            prepared
        })
    }

    fn sessions(&self) -> Vec<Session<'_>> {
        self.parts
            .iter()
            .map(|p| p.family.session(&self.runtime))
            .collect()
    }
}

/// One finished operation.
struct Op {
    wall_s: f64,
    cpu_s: f64,
    /// `(part, tenant, resolve)` in (tenant, step) order.
    resolves: Vec<(usize, usize, Resolved)>,
}

impl Op {
    fn digest(&self) -> u64 {
        self.resolves.iter().fold(0u64, |acc, (_, _, r)| {
            (acc.rotate_left(5) ^ api::digest(&r.outcome.result)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

/// Runs one operation of `workload` (see [`Workload`]).
fn run_op(
    workload: &Workload,
    prepared: &Prepared,
    sessions: &[Session<'_>],
    mode: Mode,
) -> Result<Op, String> {
    let cpu_before = stats::process_cpu_s();
    if workload.tenants == 0 {
        let part = &prepared.parts[0];
        let resolved = api::resolve(&sessions[0], &part.family.scenario(), &part.input, mode)?;
        return Ok(Op {
            wall_s: (resolved.finished - resolved.started).as_secs_f64(),
            cpu_s: stats::process_cpu_s() - cpu_before,
            resolves: vec![(0, 0, resolved)],
        });
    }
    let tenants = workload.tenants;
    let parts = prepared.parts.len();
    let tenant_sessions: Vec<Vec<Session<'_>>> = (0..tenants)
        .map(|t| sessions.iter().map(|s| api::tenant_session(s, t)).collect())
        .collect();
    let barrier = Barrier::new(tenants + 1);
    let (started, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = tenant_sessions
            .iter()
            .enumerate()
            .map(|(tenant, sessions)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (0..parts)
                        .map(|step| {
                            let p = (tenant + step) % parts;
                            let part = &prepared.parts[p];
                            api::resolve(&sessions[p], &part.family.scenario(), &part.input, mode)
                                .map(|resolved| (p, tenant, resolved))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let started = Instant::now();
        barrier.wait();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a tenant thread panicked"))
            .collect();
        (started, results)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu_before;
    let mut resolves = Vec::with_capacity(tenants * parts);
    for result in results {
        resolves.extend(result?);
    }
    Ok(Op {
        wall_s,
        cpu_s,
        resolves,
    })
}

/// The same resolves a batch runs, back to back on the calling thread.
fn run_batch_sequentially(
    workload: &Workload,
    prepared: &Prepared,
    sessions: &[Session<'_>],
) -> Result<f64, String> {
    let parts = prepared.parts.len();
    let start = Instant::now();
    for tenant in 0..workload.tenants {
        for step in 0..parts {
            let p = (tenant + step) % parts;
            let part = &prepared.parts[p];
            let session = api::tenant_session(&sessions[p], tenant);
            api::resolve(
                &session,
                &part.family.scenario(),
                &part.input,
                Mode::default(),
            )?;
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Byte-for-byte agreement of every part with its brute-force oracle
/// on a 10 %-scale sibling corpus, at `parallelism = cores` and at 1.
fn check_siblings(workload: &Workload, seed: u64) -> Vec<Check> {
    let prepared = Prepared::new(workload, seed, SIBLING_SCALE, &mut Spans::new());
    let sessions = prepared.sessions();
    let mut checks = Vec::new();
    for (part, session) in prepared.parts.iter().zip(&sessions) {
        let oracle = api::result_bytes(&part.family.oracle(session, &part.input));
        for (label, single_slot) in [("cores", false), ("1", true)] {
            let mode = Mode {
                single_slot,
                ..Mode::default()
            };
            let (ok, note) = match api::resolve(session, &part.family.scenario(), &part.input, mode)
            {
                Ok(r) => {
                    let got = api::result_bytes(&r.outcome.result);
                    (
                        got == oracle,
                        format!("{} pairs, oracle {}", got.len(), oracle.len()),
                    )
                }
                Err(e) => (false, e),
            };
            checks.push(Check {
                name: format!("sibling_equals_oracle.{:?}.p{label}", part.family),
                ok,
                note,
            });
        }
    }
    checks
}

/// Quality and count checks on a full-size outcome.
fn check_outcomes(
    workload: &Workload,
    prepared: &Prepared,
    op: &Op,
    scale_factor: f64,
) -> Vec<Check> {
    let mut checks = Vec::new();
    let Some((part, _, resolved)) = op.resolves.first() else {
        return checks;
    };
    let corpus = &prepared.parts[*part].corpus;
    let (precision, recall) = api::quality(&resolved.outcome.result, &corpus.gold);
    if workload.exact {
        checks.push(Check {
            name: "precision_recall_exact".into(),
            ok: precision == 1.0 && recall == 1.0,
            note: format!("precision {precision} recall {recall}"),
        });
        let facts = Facts::of(&resolved.outcome, corpus.entities.len());
        checks.push(Check {
            name: "comparisons_equal_bdm_pairs".into(),
            ok: facts.bdm_pairs == Some(facts.comparisons),
            note: format!(
                "comparisons {} bdm pairs {:?}",
                facts.comparisons, facts.bdm_pairs
            ),
        });
    }
    // A recall is a share of the injected duplicates; a scaled-down
    // corpus holds too few of them for the floor to mean anything.
    if let Some(floor) = workload.min_recall.filter(|_| scale_factor >= 1.0) {
        checks.push(Check {
            name: "recall_floor".into(),
            ok: recall >= floor,
            note: format!("recall {recall} floor {floor}"),
        });
    }
    checks
}

/// Runs one operation and counts it; a failure (an error, or a digest
/// that differs from the run's `reference`) is recorded and yields `None`.
fn attempt_op(
    workload: &Workload,
    prepared: &Prepared,
    sessions: &[Session<'_>],
    reference: &mut Option<u64>,
    report: &mut RunReport,
    mode: Mode,
) -> Option<Op> {
    report.ops += 1;
    match run_op(workload, prepared, sessions, mode) {
        Ok(op) => {
            let digest = op.digest();
            if *reference.get_or_insert(digest) == digest {
                return Some(op);
            }
            eprintln!("operation failed: its digest differs from the run's first");
        }
        Err(error) => eprintln!("operation failed: {error}"),
    }
    report.failed_ops += 1;
    None
}

/// Runs one workload once: untraced (end-to-end metrics) or traced
/// (per-layer metrics), as `args.traced` says.
///
/// The timed phase of an untraced run lasts `args.seconds` and is cut
/// into [`SEGMENTS`] equal segments. Each segment sets the workload up
/// [`SETUPS_PER_SEGMENT`] times (every set-up timed, each dropped before
/// the next, so peak memory stays that of one corpus), runs one untimed
/// warm-up operation on the fresh corpus, then timed operations until
/// the segment's share of the time has passed — at least one. A traced
/// run has one segment: one set-up, the warm-up and
/// [`TRACED_RUN_TIMED`] timed operations as the untraced reference.
pub fn run(workload: &Workload, args: RunArgs, registry: &Registry) -> RunReport {
    let mut spans = Spans::new();
    let mut report = RunReport {
        workload: workload.name,
        args,
        ops: 0,
        failed_ops: 0,
        digest: 0,
        checks: check_siblings(workload, args.seed),
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        spans: Spans::new(),
    };
    let (segments, setups) = if args.traced {
        (1, 1)
    } else {
        (SEGMENTS, SETUPS_PER_SEGMENT)
    };

    let mut reference: Option<u64> = None;
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut peak_rss_mb = 0.0;
    let timed_start = Instant::now();
    for segment in 0..segments {
        let mut prepared = None;
        for _ in 0..setups {
            drop(prepared.take());
            spans.next_op();
            let start = Instant::now();
            prepared = Some(Prepared::new(
                workload,
                args.seed,
                args.scale_factor,
                &mut spans,
            ));
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let prepared = prepared.expect("at least one set-up ran");
        let sessions = prepared.sessions();
        let mut attempt = |report: &mut RunReport, mode: Mode| {
            attempt_op(workload, &prepared, &sessions, &mut reference, report, mode)
        };

        let warm_up = attempt(&mut report, Mode::default());
        if let (0, Some(op)) = (segment, &warm_up) {
            report
                .checks
                .extend(check_outcomes(workload, &prepared, op, args.scale_factor));
        }
        drop(warm_up);

        let deadline_s = args.seconds * (segment + 1) as f64 / segments as f64;
        let mut timed = 0;
        // A workload on which every operation fails must still end.
        while report.failed_ops <= MAX_FAILED_OPS {
            let enough = if args.traced {
                timed >= TRACED_RUN_TIMED
            } else {
                timed >= 1 && timed_start.elapsed().as_secs_f64() >= deadline_s
            };
            if enough {
                break;
            }
            if let Some(op) = attempt(&mut report, Mode::default()) {
                walls.push(op.wall_s);
                cpus.push(op.cpu_s);
                timed += 1;
            }
        }
        if segment + 1 < segments {
            continue;
        }

        peak_rss_mb = stats::peak_rss_mib();
        // No timed sample: every operation failed, and the run reports no metric.
        if args.traced && !walls.is_empty() {
            report.per_layer = traced_phase(
                workload,
                &prepared,
                &sessions,
                &mut spans,
                &mut attempt,
                &mut report,
                Summary::of(&walls).min,
                Summary::of(&cpus).min,
            );
            let mut declared: Vec<&str> =
                registry.per_layer.iter().map(|m| m.name.as_str()).collect();
            declared.sort_unstable();
            assert!(
                report.per_layer.keys().map(String::as_str).eq(declared),
                "the traced run must emit exactly the per-layer metrics BENCHMARK.json declares"
            );
        }
    }
    if !args.traced && !walls.is_empty() {
        report.end_to_end = BTreeMap::from([
            ("resolve_s".to_string(), Summary::of(&walls)),
            ("cpu_s".to_string(), Summary::of(&cpus)),
            ("peak_rss_mb".to_string(), Summary::of(&[peak_rss_mb])),
            ("setup_s".to_string(), Summary::of(&setup_s)),
        ]);
    }
    report.digest = reference.unwrap_or(0);
    report.spans = spans;
    report
}

/// The traced operation, the `parallelism = 1` operation and the
/// probes; returns every per-layer metric by name.
#[allow(clippy::too_many_arguments)]
fn traced_phase(
    workload: &Workload,
    prepared: &Prepared,
    sessions: &[Session<'_>],
    spans: &mut Spans,
    attempt: &mut impl FnMut(&mut RunReport, Mode) -> Option<Op>,
    report: &mut RunReport,
    resolve_s: f64,
    cpu_s: f64,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    // The traced operation: the harness's `resolve` spans, with the
    // stage and task spans rebuilt from each resolve's event stream.
    spans.next_op();
    let root_name = if workload.tenants == 0 {
        "resolve"
    } else {
        "batch"
    };
    let traced = spans.scope(root_name, |_| {
        attempt(
            report,
            Mode {
                traced: true,
                ..Mode::default()
            },
        )
    });
    let mut facts: Option<Facts> = None;
    let mut unattributed_s = 0.0;
    let mut finish_iqr_s: f64 = 0.0;
    let mut finish_sigma_s: f64 = 0.0;
    let mut utilisations = Vec::new();
    let mut queue_waits_ms = Vec::new();
    let mut bdm = None;
    let mut traced_wall_s = resolve_s;
    if let Some(op) = &traced {
        traced_wall_s = op.wall_s;
        let root = spans.all().len() - 1;
        for (part, tenant, resolved) in &op.resolves {
            let entities = prepared.parts[*part].corpus.entities.len();
            let own = Facts::of(&resolved.outcome, entities);
            match &mut facts {
                None => facts = Some(own),
                Some(all) => all.absorb(&own),
            }
            if *part == 0 && bdm.is_none() {
                bdm = resolved.outcome.details.bdm().cloned();
            }
            let rebuilt = api::reconstruct(resolved);
            let resolve_wall_s = (resolved.finished - resolved.started).as_secs_f64();
            unattributed_s += resolve_wall_s - rebuilt.stage_wall_sum_s;
            finish_iqr_s = finish_iqr_s.max(stats::iqr(&rebuilt.reduce_finish_s));
            finish_sigma_s = finish_sigma_s.max(stats::sigma(&rebuilt.reduce_finish_s));
            utilisations.push(rebuilt.slot_utilisation);
            queue_waits_ms.extend(rebuilt.queue_waits_ms);

            let offset_s = spans.at_s(resolved.started);
            let resolve_span = if workload.tenants == 0 {
                root
            } else {
                spans.push(Span::new(
                    "resolve".to_string(),
                    offset_s,
                    spans.at_s(resolved.finished),
                    Some(root),
                    TENANT_LANE + tenant,
                ))
            };
            let base = spans.all().len();
            for span in rebuilt.spans {
                spans.push(Span::new(
                    span.name,
                    offset_s + span.start_s,
                    offset_s + span.end_s,
                    Some(span.stage.map_or(resolve_span, |s| base + s)),
                    span.slot.map_or(0, |s| SLOT_LANE + s),
                ));
            }
        }
    }
    let facts = facts.unwrap_or_default();
    queue_waits_ms.sort_by(|a, b| a.partial_cmp(b).expect("waits are finite"));
    let percentile = |p: f64| -> f64 {
        if queue_waits_ms.is_empty() {
            return 0.0;
        }
        let rank =
            ((p * queue_waits_ms.len() as f64).ceil() as usize).clamp(1, queue_waits_ms.len());
        queue_waits_ms[rank - 1]
    };

    set("resolver.unattributed_s", unattributed_s);
    set("resolver.output_pairs", facts.output_pairs);
    set("loadbalance.bdm_stage_s", facts.bdm_stage_s);
    set("loadbalance.bdm_share", facts.bdm_stage_s / resolve_s);
    set("loadbalance.match_stage_s", facts.match_stage_s);
    set("loadbalance.reduce_imbalance", facts.reduce_imbalance);
    set("loadbalance.reduce_wall_sum_s", facts.reduce_wall_sum_s);
    set("loadbalance.reduce_wall_max_s", facts.reduce_wall_max_s);
    set("loadbalance.reduce_finish_iqr_s", finish_iqr_s);
    set("loadbalance.reduce_finish_sigma_s", finish_sigma_s);
    set("loadbalance.comparisons", facts.comparisons);
    set("loadbalance.map_output_records", facts.map_output_records);
    set(
        "loadbalance.replication",
        facts.map_output_records / facts.entities.max(1.0),
    );
    set("engine.map_wall_sum_s", facts.map_wall_sum_s);
    set("engine.shuffle_s", facts.shuffle_s);
    set("engine.spilled_runs", facts.spilled_runs);
    set("engine.peak_resident_records", facts.peak_resident_records);
    set("engine.fault.retries", facts.retries);
    set(
        "engine.pool.slot_utilisation",
        utilisations.iter().sum::<f64>() / utilisations.len().max(1) as f64,
    );
    set("engine.queue_wait_p50_ms", percentile(0.50));
    set("engine.queue_wait_p99_ms", percentile(0.99));
    set(
        "engine.trace.overhead_pct",
        (traced_wall_s - resolve_s) / resolve_s * 100.0,
    );
    set("sn.sample_stage_s", facts.sn_sample_stage_s);
    set("sn.window_stage_s", facts.sn_window_stage_s);
    set("sn.replicas", facts.sn_replicas);
    set("lsh.signature_stage_s", facts.lsh_signature_stage_s);
    set("lsh.candidate_pairs", facts.lsh_candidate_pairs);
    let lsh_recall = match (&traced, prepared.parts[0].family) {
        (Some(op), Family::Lsh { .. }) => {
            api::quality(
                &op.resolves[0].2.outcome.result,
                &prepared.parts[0].corpus.gold,
            )
            .1
        }
        _ => 0.0,
    };
    set("lsh.recall", lsh_recall);
    drop(traced);

    // parallelism = 1, and (tenants) the batch's resolves back to back.
    let mut speedup = 0.0;
    if workload.p1_run {
        spans.next_op();
        let p1 = spans.scope("resolve.p1", |_| {
            attempt(
                report,
                Mode {
                    single_slot: true,
                    ..Mode::default()
                },
            )
        });
        if let Some(op) = p1 {
            speedup = op.wall_s / resolve_s;
        }
    }
    set("engine.pool.speedup_vs_p1", speedup);
    let mut tenant_gain = 0.0;
    if workload.tenants > 0 {
        spans.next_op();
        report.ops += 1;
        match spans.scope("batch.sequential", |_| {
            run_batch_sequentially(workload, prepared, sessions)
        }) {
            Ok(sequential_s) => tenant_gain = sequential_s / resolve_s,
            Err(error) => {
                eprintln!("sequential batch failed: {error}");
                report.failed_ops += 1;
            }
        }
    }
    set("engine.pool.tenant_gain", tenant_gain);

    // The probes, each under its own span.
    spans.next_op();
    let part = &prepared.parts[0];
    let probe = Probe {
        family: part.family,
        session: &sessions[0],
        corpus: &part.corpus,
        input: &part.input,
        bdm,
    };
    let runtime = &prepared.runtime;
    let (records, keys) = (facts.analysis_records as u64, facts.analysis_keys as u64);
    let pairs = ((COMPARE_PROBE_PAIRS * report.args.scale_factor.min(1.0)) as usize).max(10_000);
    let probes: [(&str, &dyn Fn() -> f64); 10] = [
        ("loadbalance.bdm_job_s", &|| probe.bdm_job_s(parallelism())),
        ("loadbalance.analyze_ms", &|| probe.analyze_ms()),
        ("core.blocking.ns_per_entity", &|| {
            probe.blocking_ns_per_entity()
        }),
        ("core.matcher.prepare_ns_per_entity", &|| {
            probe.prepare_ns_per_entity()
        }),
        ("core.matcher.compare_ns_per_pair", &|| {
            probe.compare_ns_per_pair(pairs)
        }),
        ("core.minhash.signature_ns_per_entity", &|| {
            probe.signature_ns_per_entity()
        }),
        ("core.sortkey.ns_per_entity", &|| {
            probe.sortkey_ns_per_entity()
        }),
        ("engine.job.passthrough_records_per_s", &|| {
            api::passthrough_records_per_s(runtime, records, keys, false)
        }),
        ("engine.spill.passthrough_records_per_s", &|| {
            api::passthrough_records_per_s(runtime, records, keys, true)
        }),
        ("engine.pool.dispatch_us_per_task", &|| {
            api::dispatch_us_per_task(runtime, DISPATCH_PROBE_TASKS)
        }),
    ];
    for (name, body) in probes {
        let value = spans.scope(&format!("probe:{name}"), |_| body());
        set(name, value);
    }
    set("loadbalance.basic_imbalance", probe.basic_imbalance());
    let compare_s = m["core.matcher.compare_ns_per_pair"] * 1e-9 * facts.comparisons;
    m.insert("core.matcher.compare_share".to_string(), compare_s / cpu_s);
    m
}

impl RunReport {
    /// The run's last output line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, registry: &Registry) -> Json {
        let metrics: Vec<(String, Json)> = if self.args.traced {
            registry
                .per_layer
                .iter()
                .filter_map(|def| {
                    let value = *self.per_layer.get(&def.name)?;
                    Some((def.name.clone(), metric_json(value, &def.unit)))
                })
                .collect()
        } else {
            registry
                .end_to_end
                .iter()
                .filter_map(|def| {
                    let value = self.end_to_end.get(&def.name)?.min;
                    Some((def.name.clone(), metric_json(value, &def.unit)))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops.max(1) as f64)),
            ("failed", Json::Num(self.failed_ops as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}
