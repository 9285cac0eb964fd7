//! The traced run: the per-layer split of one workload.
//!
//! Two sources, both read from outside the program:
//!
//! - **Counters.** The timed phase runs as in the end-to-end run, in a
//!   build with the `telemetry` feature; the difference of two
//!   `poseidon-telemetry` snapshots around it gives exact work counts
//!   and busy time per layer (`ntt.*`, `rns.*`, `keyswitch.*`,
//!   `integrity.checked`, `par.*`, `serve.*`).
//! - **Spans.** Afterwards every distinct unit of the workload is
//!   replayed once, uncontended, through each layer's public entry point
//!   in turn: the loopback round trip (`tcp::Client`), the in-process
//!   `EvalService::call`, the frame decode and encode the server does
//!   (`poseidon-wire`), and the execution the service performs (the
//!   DMR-checked or bare `Evaluator` op, or `plan_trace` and
//!   `plan::execute` for programs). Each call is timed and placed in one
//!   span tree per unit in the order the server runs them; a layer's
//!   self time is its span minus the part its children cover.

use std::ops::Range;
use std::time::Instant;

use he_ckks::cipher::Ciphertext;
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::CheckedEvaluator;
use poseidon_core::decompose::BasicOp;
use poseidon_core::plan::{execute, plan_trace, PlanOptions};
use poseidon_serve::{EvalService, Request};
use poseidon_sim::{AcceleratorConfig, Simulator};
use poseidon_telemetry::Registry;

use crate::spans::{Recorder, SpanId};
use crate::stats;
use crate::workloads::{
    self, op_key, program_key, Check, Fixture, SingleOp, Tally, Workload, PROGRAMS,
};
use crate::{Metric, Options};

/// Names of the per-layer metrics, in report order.
pub const PER_LAYER: [&str; 28] = [
    "ntt.forward_per_unit",
    "ntt.inverse_per_unit",
    "ntt.forward_us",
    "ntt.busy_share",
    "rns.moddown_per_unit",
    "rns.convert_per_unit",
    "rns.busy_share",
    "keyswitch.digits_per_unit",
    "keyswitch.hoists_per_unit",
    "keyswitch.reuse_ratio",
    "keyswitch.busy_share",
    "integrity.checked_per_unit",
    "plan.compile_ms",
    "plan.exec_ms",
    "plan.ntt_forward_planned",
    "par.dispatches_per_unit",
    "par.serial_per_unit",
    "par.worker_busy_share",
    "wire.encode_ms",
    "wire.decode_ms",
    "wire.keyset_decode_ms",
    "serve.queue_ms",
    "serve.batch_size_mean",
    "serve.steal_per_unit",
    "serve.keycache_miss_ratio",
    "tcp.overhead_ms",
    "attribution_coverage",
    "trace_overhead_ratio",
];

/// Span names of the replay tree.
mod span {
    pub const TCP: &str = "tcp";
    pub const WIRE_DECODE: &str = "wire.decode";
    pub const WIRE_ENCODE: &str = "wire.encode";
    pub const SERVE: &str = "serve";
    pub const INTEGRITY: &str = "ckks.integrity";
    pub const EVAL: &str = "ckks.eval";
    pub const PLAN_COMPILE: &str = "plan.compile";
    pub const PLAN_EXEC: &str = "plan.exec";
}

/// Durations (ns) of one unit's replayed layer calls.
struct Timings {
    tcp: u64,
    decode: u64,
    serve: u64,
    encode: u64,
    /// Outer execution (DMR-checked op, or plan compile for programs).
    outer: u64,
    /// Inner execution (bare op, or `plan::execute` for programs).
    inner: u64,
    /// `ntt.forward` transforms of a planned program's execution.
    ntt_forward: u64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Lays one unit's timings out as the span tree the server path nests
/// them in and returns the ids of its spans, root first.
fn place(rec: &mut Recorder, program: bool, t: &Timings, unit: u64) -> Range<SpanId> {
    let s0 = rec.now();
    let root = rec.push(span::TCP, s0, s0 + t.tcp, None, unit);
    rec.push(span::WIRE_DECODE, s0, s0 + t.decode, Some(root), unit);
    let serve_start = s0 + t.decode;
    let serve_end = serve_start + t.serve;
    let serve = rec.push(span::SERVE, serve_start, serve_end, Some(root), unit);
    rec.push(
        span::WIRE_ENCODE,
        serve_end,
        serve_end + t.encode,
        Some(root),
        unit,
    );
    if program {
        // Compile, then execute, at the end of the service call.
        let exec_start = serve_end.saturating_sub(t.outer + t.inner).max(serve_start);
        rec.push(
            span::PLAN_COMPILE,
            exec_start,
            exec_start + t.outer,
            Some(serve),
            unit,
        );
        let e0 = exec_start + t.outer;
        rec.push(span::PLAN_EXEC, e0, e0 + t.inner, Some(serve), unit);
    } else {
        // The checked op runs the bare op (twice, for DMR) inside it.
        let outer_start = serve_end.saturating_sub(t.outer).max(serve_start);
        let outer = rec.push(
            span::INTEGRITY,
            outer_start,
            outer_start + t.outer,
            Some(serve),
            unit,
        );
        let inner_start = (outer_start + t.outer)
            .saturating_sub(t.inner)
            .max(outer_start);
        rec.push(
            span::EVAL,
            inner_start,
            inner_start + t.inner,
            Some(outer),
            unit,
        );
    }
    root..rec.spans().len()
}

fn single_request(op: SingleOp, a: Ciphertext, b: Ciphertext) -> Request {
    match op {
        SingleOp::Rotate(steps) => Request::Rotate { a, steps },
        SingleOp::Add => Request::Add { a, b },
        SingleOp::Double => Request::Add { a: a.clone(), b: a },
        SingleOp::Mul => Request::Mul { a, b },
    }
}

/// Replays every distinct unit once through each layer's entry point.
/// Returns the spans of each replayed unit and its timings.
fn replay(fx: &Fixture, check: &Check, rec: &mut Recorder) -> Vec<(Range<SpanId>, Timings)> {
    let service = EvalService::start(fx.workload.config());
    for t in 0..fx.tenants {
        service
            .register_tenant_frame(format!("t{t}"), &fx.party.keyset_frame)
            .expect("in-process registration of a frame the TCP path accepted");
    }
    let client = &fx.server.clients[0];
    let party = &fx.party;
    let reg = Registry::global();
    let mut out = Vec::new();
    let mut unit = 1u64 << 62;
    let mut push = |program: bool, t: Timings| {
        out.push((place(rec, program, &t, unit), t));
        unit += 1;
    };
    match fx.workload {
        Workload::PlannedPrograms => {
            for (p, (_, text)) in PROGRAMS.iter().enumerate() {
                for (i, input) in party.inputs.iter().enumerate() {
                    let (reply, tcp) = timed(|| client.program("t0", text, &input.fa));
                    let reply = reply.expect("replayed program");
                    assert!(
                        check.matches(program_key(p, i), &reply),
                        "replayed reply differs"
                    );
                    let (a, decode) =
                        timed(|| poseidon_wire::decode_ciphertext(&party.ctx, &input.fa));
                    let a = a.expect("decodable input");
                    let request = Request::Program {
                        text: (*text).into(),
                        a: a.clone(),
                    };
                    let (result, serve) = timed(|| service.call("t0", request));
                    let result = result.expect("in-process program");
                    let (_, encode) =
                        timed(|| poseidon_wire::encode_ciphertext(&party.ctx, &result));
                    let (plan, compile) = timed(|| {
                        let trace = poseidon_sim::program::parse(text).expect("program parses");
                        plan_trace(&trace, &party.ctx, &PlanOptions::default()).expect("plans")
                    });
                    let inputs = vec![a; plan.graph.inputs().len()];
                    let before = reg.snapshot();
                    let (_, exec) = timed(|| {
                        let mut eval = Evaluator::new(&party.ctx);
                        execute(&plan, &mut eval, &inputs, &party.keys).expect("planned execution")
                    });
                    let ntt_forward = reg
                        .snapshot()
                        .since(&before)
                        .get("ntt.forward")
                        .map_or(0, |x| x.count);
                    push(
                        true,
                        Timings {
                            tcp,
                            decode,
                            serve,
                            encode,
                            outer: compile,
                            inner: exec,
                            ntt_forward,
                        },
                    );
                }
            }
        }
        Workload::OpBurst => {
            // Tenant t0 stands for every tenant: they share one keyset.
            let tenant = "t0";
            for op in SingleOp::round() {
                for (i, input) in party.inputs.iter().enumerate() {
                    let (reply, tcp) = timed(|| client.request(tenant, op.op(input)));
                    let reply = reply.expect("replayed request").expect("ciphertext");
                    assert!(
                        check.matches(op_key(i, op), &reply),
                        "replayed reply differs"
                    );
                    let two = matches!(op, SingleOp::Add | SingleOp::Mul);
                    let ((a, b), decode) = timed(|| {
                        let decode = |f| poseidon_wire::decode_ciphertext(&party.ctx, f);
                        (decode(&input.fa), two.then(|| decode(&input.fb)))
                    });
                    let a = a.expect("decodable input");
                    let b = b
                        .transpose()
                        .expect("decodable input")
                        .unwrap_or_else(|| a.clone());
                    let request = single_request(op, a.clone(), b.clone());
                    let (result, serve) = timed(|| service.call(tenant, request));
                    let result = result.expect("in-process request");
                    let (_, encode) =
                        timed(|| poseidon_wire::encode_ciphertext(&party.ctx, &result));
                    let eval = Evaluator::new(&party.ctx);
                    let checked = CheckedEvaluator::new(&party.ctx);
                    let keys = &party.keys;
                    let bare = || -> Result<Ciphertext, EvalError> {
                        match op {
                            SingleOp::Rotate(s) => eval
                                .try_rotate_many(&a, &[s], keys)
                                .map(|mut v| v.remove(0)),
                            SingleOp::Add => eval.try_add(&a, &b),
                            SingleOp::Double => eval.try_add(&a, &a),
                            SingleOp::Mul => eval.try_mul(&a, &b, keys),
                        }
                    };
                    // The service runs rotations on the bare evaluator
                    // and every other single op under DMR, which runs
                    // the bare op twice.
                    let (r, outer) = timed(|| match op {
                        SingleOp::Rotate(_) => bare(),
                        SingleOp::Add => checked.add(&a, &b),
                        SingleOp::Double => checked.add(&a, &a),
                        SingleOp::Mul => checked.mul(&a, &b, keys),
                    });
                    r.expect("replayed execution");
                    let (r, inner) = timed(bare);
                    r.expect("replayed execution");
                    push(
                        false,
                        Timings {
                            tcp,
                            decode,
                            serve,
                            encode,
                            outer,
                            inner,
                            ntt_forward: 0,
                        },
                    );
                }
            }
        }
    }
    service.shutdown();
    out
}

/// Median time of one forward NTT at the workload's N, default kernel.
fn ntt_forward_us(fx: &Fixture) -> f64 {
    let table = &fx.party.ctx.chain_basis().tables()[0];
    let n = fx.party.ctx.n();
    let mut a: Vec<u64> = (0..n as u64).collect();
    const BATCH: u32 = 50;
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                table.forward(std::hint::black_box(&mut a));
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH)
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// Median time to decode the workload's keyset frame.
fn keyset_decode_ms(fx: &Fixture) -> f64 {
    let frame = &fx.party.keyset_frame;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(poseidon_wire::decode_keyset(frame).expect("keyset decodes"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// Measured per-op time shares of each program beside the accelerator
/// model's prediction for the same program.
fn print_model_reference(fx: &Fixture) {
    let party = &fx.party;
    let reg = Registry::global();
    let sim = Simulator::new(AcceleratorConfig::poseidon_u280());
    let ops = [
        (BasicOp::Rotation, "eval.rotate"),
        (BasicOp::CMult, "eval.mul"),
        (BasicOp::Rescale, "eval.rescale"),
        (BasicOp::Keyswitch, "eval.keyswitch"),
    ];
    eprintln!("per-op time share, % of program time (scopes are inclusive; the model column is unvalidated, no error figure)");
    eprintln!(
        "  {:<12} {:<10} {:>10} {:>10}",
        "program", "op", "measured", "model"
    );
    for (name, text) in PROGRAMS {
        let trace = poseidon_sim::program::parse(text).expect("shipped program parses");
        let report = sim.run(&trace);
        let plan = plan_trace(&trace, &party.ctx, &PlanOptions::default()).expect("plans");
        let inputs = vec![party.inputs[0].ca.clone(); plan.graph.inputs().len()];
        let before = reg.snapshot();
        let (_, total) = timed(|| {
            let mut eval = Evaluator::new(&party.ctx);
            execute(&plan, &mut eval, &inputs, &party.keys).expect("planned execution")
        });
        let delta = reg.snapshot().since(&before);
        for (op, scope) in ops {
            let measured = delta.get(scope).map_or(0, |s| s.nanos) as f64 / total as f64 * 100.0;
            eprintln!(
                "  {name:<12} {:<10} {measured:>10.1} {:>10.1}",
                op.name(),
                report.time_share_percent(op)
            );
        }
    }
}

/// Runs the traced timed phase and the replay; returns the per-layer
/// metrics and the timed phase's tally.
pub fn traced(opts: &Options, fx: &Fixture, check: &Check) -> (Vec<Metric>, Tally) {
    let reg = Registry::global();
    let before = reg.snapshot();
    let (tally, rec) = workloads::drive(fx, check, opts.seconds, true);
    let delta = reg.snapshot().since(&before);
    let mut rec = rec.expect("a traced drive records spans");

    let units = tally.completed().max(1) as f64;
    let wall_ns = (tally.elapsed_s * 1e9).max(1.0);
    let count = |name: &str| delta.get(name).map_or(0, |s| s.count) as f64;
    let items = |name: &str| delta.get(name).map_or(0, |s| s.items) as f64;
    let busy = |name: &str| delta.get(name).map_or(0, |s| s.nanos) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let loaded_ms = tally.latencies.iter().map(|&(_, ms)| ms).sum::<f64>()
        / tally.latencies.len().max(1) as f64;

    let replayed = replay(fx, check, &mut rec);
    let n = replayed.len().max(1) as f64;
    let mean_ms = |f: &dyn Fn(&Timings) -> u64| {
        replayed.iter().map(|(_, t)| f(t) as f64).sum::<f64>() / n / 1e6
    };
    // Summed self time (ms per replayed unit) of the spans `keep` selects.
    let self_ms = |keep: &dyn Fn(&str) -> bool| {
        let total: u64 = replayed
            .iter()
            .flat_map(|(ids, _)| ids.clone())
            .filter(|&i| keep(rec.spans()[i].name))
            .map(|i| rec.self_time(i))
            .sum();
        total as f64 / n / 1e6
    };
    let program = fx.workload == Workload::PlannedPrograms;

    if program {
        print_model_reference(fx);
    }
    eprintln!(
        "telemetry over the timed phase ({} units):",
        tally.completed()
    );
    eprint!("{}", delta.to_text_table());
    if let Some(path) = &opts.spans_out {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            rec.write_tsv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }

    let team = ratio(items("par.dispatch"), count("par.dispatch"));
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m(
            "ntt.forward_per_unit",
            count("ntt.forward") / units,
            "count",
        ),
        m(
            "ntt.inverse_per_unit",
            count("ntt.inverse") / units,
            "count",
        ),
        m("ntt.forward_us", ntt_forward_us(fx), "us"),
        m(
            "ntt.busy_share",
            (busy("ntt.forward") + busy("ntt.inverse")) / wall_ns,
            "ratio",
        ),
        m(
            "rns.moddown_per_unit",
            count("rns.moddown") / units,
            "count",
        ),
        m(
            "rns.convert_per_unit",
            count("rns.convert") / units,
            "count",
        ),
        m(
            "rns.busy_share",
            (busy("rns.moddown") + busy("rns.convert")) / wall_ns,
            "ratio",
        ),
        m(
            "keyswitch.digits_per_unit",
            count("keyswitch.digit") / units,
            "count",
        ),
        m(
            "keyswitch.hoists_per_unit",
            count("keyswitch.hoist") / units,
            "count",
        ),
        m(
            "keyswitch.reuse_ratio",
            ratio(
                count("keyswitch.reuse"),
                count("keyswitch.reuse") + count("keyswitch.hoist"),
            ),
            "ratio",
        ),
        m(
            "keyswitch.busy_share",
            busy("eval.keyswitch") / wall_ns,
            "ratio",
        ),
        m(
            "integrity.checked_per_unit",
            count("integrity.checked") / units,
            "count",
        ),
        m(
            "plan.compile_ms",
            if program { mean_ms(&|t| t.outer) } else { 0.0 },
            "ms",
        ),
        m(
            "plan.exec_ms",
            if program { mean_ms(&|t| t.inner) } else { 0.0 },
            "ms",
        ),
        m(
            "plan.ntt_forward_planned",
            if program {
                replayed
                    .iter()
                    .map(|(_, t)| t.ntt_forward as f64)
                    .sum::<f64>()
                    / n
            } else {
                0.0
            },
            "count",
        ),
        m(
            "par.dispatches_per_unit",
            count("par.dispatch") / units,
            "count",
        ),
        m("par.serial_per_unit", count("par.serial") / units, "count"),
        m(
            "par.worker_busy_share",
            ratio(busy("par.worker"), busy("par.dispatch") * team),
            "ratio",
        ),
        m("wire.encode_ms", mean_ms(&|t| t.encode), "ms"),
        m("wire.decode_ms", mean_ms(&|t| t.decode), "ms"),
        m("wire.keyset_decode_ms", keyset_decode_ms(fx), "ms"),
        m("serve.queue_ms", self_ms(&|s| s == span::SERVE), "ms"),
        m(
            "serve.batch_size_mean",
            ratio(items("serve.batch.size"), count("serve.batch.size")),
            "count",
        ),
        m(
            "serve.steal_per_unit",
            items("serve.steal") / units,
            "count",
        ),
        m(
            "serve.keycache_miss_ratio",
            ratio(
                count("serve.keycache.miss"),
                count("serve.keycache.miss") + count("serve.keycache.hit"),
            ),
            "ratio",
        ),
        m("tcp.overhead_ms", self_ms(&|s| s == span::TCP), "ms"),
        m(
            "attribution_coverage",
            ratio(self_ms(&|_| true), loaded_ms),
            "ratio",
        ),
        m(
            "trace_overhead_ratio",
            opts.untraced_throughput
                .map_or(0.0, |u| ratio(tally.throughput_per_s(), u)),
            "ratio",
        ),
    ];
    debug_assert_eq!(
        metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
        PER_LAYER
    );
    (metrics, tally)
}
