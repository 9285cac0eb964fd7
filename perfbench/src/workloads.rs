//! The two workloads: set-up, the output check, and the closed-loop
//! timed phase, all driven through the public `tcp::Client` API against
//! an `EvalService` listening on loopback.
//!
//! Why each workload exists is recorded in `perfbench/README.md`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::plan::{compile_trace, execute, CompileOptions, Plan};
use poseidon_serve::tcp::{self, Op};
use poseidon_serve::{EvalService, ServeError, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::{Recorder, SpanId};
use crate::stats;

/// Slots carrying data; shorter vectors are replicated by the encoder,
/// so a rotation is a cyclic shift over these slots.
pub const SLOTS: usize = 128;

/// Largest slot error a reply may have against its reference.
pub const TOLERANCE: f64 = 1.0 / 1024.0;

/// Shipped programs of comparable cost (about 0.12 s each at
/// `CkksParams::small()` on a 2-core host), so pooled percentiles of
/// `planned_programs` stay unimodal.
pub const PROGRAMS: [(&str, &str); 2] = [
    (
        "bsgs_matvec",
        include_str!("../../programs/bsgs_matvec.pos"),
    ),
    ("lstm_cell", include_str!("../../programs/lstm_cell.pos")),
];

/// Rotation steps of an `op_burst` round; the shared keyset holds keys
/// for them.
pub const ROT_STEPS: [i64; 6] = [1, 2, 3, 4, 5, 6];

/// Tenants in `op_burst`.
const BURST_TENANTS: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole `.pos` programs over one connection.
    PlannedPrograms,
    /// Pipelined single-op rounds from four tenants over two connections.
    OpBurst,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::PlannedPrograms, Workload::OpBurst];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlannedPrograms => "planned_programs",
            Workload::OpBurst => "op_burst",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one completed unit is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::PlannedPrograms => "program",
            Workload::OpBurst => "request",
        }
    }

    fn params(self) -> CkksParams {
        match self {
            Workload::PlannedPrograms => CkksParams::small(),
            Workload::OpBurst => CkksParams::paper_32bit(1 << 12, 4),
        }
    }

    /// The service configuration: the program's defaults, apart from
    /// the shard count of `op_burst`.
    pub fn config(self) -> ServiceConfig {
        match self {
            Workload::PlannedPrograms => ServiceConfig::default(),
            Workload::OpBurst => ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::PlannedPrograms => 0x7072_6f67,
            Workload::OpBurst => 0x6275_7273,
        }
    }
}

/// One single-op request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingleOp {
    /// Left rotation of `a`.
    Rotate(i64),
    /// `a + b`.
    Add,
    /// `a + a`.
    Double,
    /// `a · b`, relinearised.
    Mul,
}

impl SingleOp {
    /// An `op_burst` round: six same-source rotations, two adds, one mul.
    pub fn round() -> Vec<SingleOp> {
        let mut ops: Vec<SingleOp> = ROT_STEPS.iter().map(|&s| SingleOp::Rotate(s)).collect();
        ops.extend([SingleOp::Add, SingleOp::Double, SingleOp::Mul]);
        ops
    }

    fn index(self) -> usize {
        match self {
            SingleOp::Rotate(s) => s as usize,
            SingleOp::Add => 7,
            SingleOp::Double => 8,
            SingleOp::Mul => 9,
        }
    }

    /// The request as a wire op over `input`'s frames.
    pub fn op(self, input: &Input) -> Op<'_> {
        match self {
            SingleOp::Rotate(steps) => Op::Rotate {
                a: &input.fa,
                steps,
            },
            SingleOp::Add => Op::Add {
                a: &input.fa,
                b: &input.fb,
            },
            SingleOp::Double => Op::Add {
                a: &input.fa,
                b: &input.fa,
            },
            SingleOp::Mul => Op::Mul {
                a: &input.fa,
                b: &input.fb,
            },
        }
    }

    /// Slot-wise plaintext reference.
    pub fn reference(self, input: &Input) -> Vec<Complex> {
        (0..SLOTS)
            .map(|j| match self {
                SingleOp::Rotate(s) => input.za[(j + s as usize) % SLOTS],
                SingleOp::Add => input.za[j] + input.zb[j],
                SingleOp::Double => input.za[j] + input.za[j],
                SingleOp::Mul => input.za[j] * input.zb[j],
            })
            .collect()
    }

    fn blobs(self, input: &Input) -> Vec<usize> {
        match self {
            SingleOp::Rotate(_) => vec![input.fa.len()],
            _ => vec![input.fa.len(), input.fb.len()],
        }
    }
}

/// One encrypted operand pair with its plaintext slots and frames.
pub struct Input {
    /// Slots of `a`.
    pub za: Vec<Complex>,
    /// Slots of `b`.
    pub zb: Vec<Complex>,
    /// `a`, encrypted.
    pub ca: Ciphertext,
    /// `a`'s wire frame.
    pub fa: Vec<u8>,
    /// `b`'s wire frame.
    pub fb: Vec<u8>,
}

/// One key owner: context, keys (the secret stays client-side), the
/// public keyset frame and the encrypted inputs.
pub struct Party {
    /// The CKKS context.
    pub ctx: CkksContext,
    /// Full key set, secret included.
    pub keys: KeySet,
    /// Public keyset frame sent at registration.
    pub keyset_frame: Vec<u8>,
    /// Bytes on the wire for one chunked registration of the frame.
    pub register_bytes: u64,
    /// Encrypted operand pairs.
    pub inputs: Vec<Input>,
}

impl Party {
    fn new(ctx: CkksContext, rot_steps: &[i64], inputs: usize, rng: &mut StdRng) -> Self {
        let mut keys = KeySet::generate(&ctx, rng);
        keys.add_rotation_keys(rot_steps.iter().copied(), rng);
        let keyset_frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
        let register_bytes =
            poseidon_wire::chunk_keyset(&keyset_frame, poseidon_wire::KEYSET_CHUNK_BYTES)
                .iter()
                .map(|chunk| request_bytes(PROBE_TENANT, false, &[chunk.len()]) + ACK_BYTES)
                .sum();
        let inputs = (0..inputs)
            .map(|_| {
                let za = random_slots(rng);
                let zb = random_slots(rng);
                let ca = encrypt(&ctx, &keys, &za, rng);
                let cb = encrypt(&ctx, &keys, &zb, rng);
                let fa = poseidon_wire::encode_ciphertext(&ctx, &ca);
                let fb = poseidon_wire::encode_ciphertext(&ctx, &cb);
                Input { za, zb, ca, fa, fb }
            })
            .collect();
        Self {
            ctx,
            keys,
            keyset_frame,
            register_bytes,
            inputs,
        }
    }

    /// Decrypts a reply frame and returns its largest slot error
    /// against `expect`.
    pub fn slot_error(&self, frame: &[u8], expect: &[Complex]) -> Result<f64, String> {
        let ct = poseidon_wire::decode_ciphertext(&self.ctx, frame).map_err(|e| e.to_string())?;
        Ok(self.ct_error(&ct, expect))
    }

    fn ct_error(&self, ct: &Ciphertext, expect: &[Complex]) -> f64 {
        let got = self.decrypt(ct);
        got.iter()
            .zip(expect)
            .map(|(g, e)| (g.re - e.re).abs().max((g.im - e.im).abs()))
            .fold(0.0, f64::max)
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<Complex> {
        let pt = self.keys.secret().decrypt(ct);
        self.ctx.encoder().decode_rns(pt.poly(), pt.scale(), SLOTS)
    }
}

fn random_slots(rng: &mut StdRng) -> Vec<Complex> {
    (0..SLOTS)
        .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
        .collect()
}

fn encrypt(ctx: &CkksContext, keys: &KeySet, z: &[Complex], rng: &mut StdRng) -> Ciphertext {
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

/// Tenant id length used only to size registration frames; every
/// tenant id of the benchmark has this length.
const PROBE_TENANT: &str = "t0";

/// An ok reply without a ciphertext: length prefix, id, status, blob
/// length.
const ACK_BYTES: u64 = 4 + 8 + 1 + 4;

/// Bytes of one request frame on the wire, by the protocol layout in
/// `poseidon_serve::tcp`: length prefix, id, opcode, flags, ttl, tenant,
/// optional rotation steps, then length-prefixed blobs.
pub fn request_bytes(tenant: &str, rotate: bool, blobs: &[usize]) -> u64 {
    let fixed = 4 + 8 + 1 + 1 + 4 + 2 + tenant.len() + if rotate { 8 } else { 0 };
    (fixed + blobs.iter().map(|b| 4 + b).sum::<usize>()) as u64
}

/// Bytes of one ok reply carrying `blob` bytes.
pub fn reply_bytes(blob: usize) -> u64 {
    ACK_BYTES + blob as u64
}

fn tenant_id(i: usize) -> String {
    format!("t{i}")
}

/// The service, its loopback listener and the benchmark's client
/// connections (at most `nproc`).
pub struct Server {
    /// The in-process service behind the listener.
    pub service: Arc<EvalService>,
    /// Client connections.
    pub clients: Vec<tcp::Client>,
}

impl Server {
    fn start(config: ServiceConfig, connections: usize) -> Self {
        let service = EvalService::start(config);
        // The acceptor thread runs until the process exits: `listen` has
        // no way to stop it, so its handle is dropped.
        let (addr, _acceptor) =
            tcp::listen(Arc::clone(&service), "127.0.0.1:0").expect("bind a loopback port");
        let clients = (0..connections)
            .map(|_| tcp::Client::connect(addr).expect("connect over loopback"))
            .collect();
        Self { service, clients }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.clients.clear();
        self.service.shutdown();
    }
}

/// Everything built before the first timed request.
pub struct Fixture {
    /// Which workload this is.
    pub workload: Workload,
    /// The seed the inputs came from.
    pub seed: u64,
    /// The key owner; every tenant id `t{i}` registers its keyset.
    pub party: Party,
    /// Tenants registered.
    pub tenants: usize,
    /// Service and connections.
    pub server: Server,
    /// Chunked re-registration times after set-up, ms (see
    /// [`reregister`]).
    pub registrations_ms: Vec<f64>,
    /// Set-up time, from `process_start` to the last registration ack.
    pub setup_s: f64,
}

/// Draws items in seeded shuffled rounds, every item once per round, so
/// a run's unit mix stays balanced whatever its length.
pub struct Bag<T> {
    items: Vec<T>,
    next: usize,
    rng: StdRng,
}

impl<T: Copy> Bag<T> {
    /// A bag over `items` (non-empty), shuffled by `rng`.
    pub fn new(items: Vec<T>, rng: StdRng) -> Self {
        assert!(!items.is_empty(), "a bag needs items");
        Self {
            next: items.len(),
            items,
            rng,
        }
    }

    /// The next item; starts a freshly shuffled round when one ends.
    pub fn draw(&mut self) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

fn rng_for(seed: u64, salt: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ salt
            ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// Generates keys and inputs from `seed`, starts the service behind a
/// loopback listener and registers every tenant over TCP.
///
/// # Panics
///
/// Panics if the service refuses a registration — no timed run can
/// proceed without its tenants.
pub fn setup(workload: Workload, seed: u64, process_start: Instant) -> Fixture {
    let mut rng = rng_for(seed, workload.salt(), 0);
    let ctx = CkksContext::new(workload.params());
    let (party, tenants, connections) = match workload {
        Workload::PlannedPrograms => {
            let steps = program_rotation_steps(&ctx);
            (Party::new(ctx, &steps, 2, &mut rng), 1, 1)
        }
        // One keyset shared by every tenant, as in `tables serve_scale`.
        Workload::OpBurst => (Party::new(ctx, &ROT_STEPS, 3, &mut rng), BURST_TENANTS, 2),
    };
    let server = Server::start(workload.config(), connections);
    for t in 0..tenants {
        server.clients[t % server.clients.len()]
            .register_tenant_chunked(&tenant_id(t), &party.keyset_frame)
            .expect("tenant registration during set-up");
    }
    Fixture {
        workload,
        seed,
        party,
        tenants,
        server,
        registrations_ms: Vec::new(),
        setup_s: process_start.elapsed().as_secs_f64(),
    }
}

/// Re-registers tenant `t0` with its keyset `times` times over the first
/// connection, adding each upload's time to `fx.registrations_ms`.
///
/// # Panics
///
/// Panics if the service refuses a keyset it accepted at set-up.
pub fn reregister(fx: &mut Fixture, times: usize) {
    let client = &fx.server.clients[0];
    for _ in 0..times {
        let t0 = Instant::now();
        client
            .register_tenant_chunked(&tenant_id(0), &fx.party.keyset_frame)
            .expect("re-registration of a set-up tenant");
        fx.registrations_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
}

/// Rotation steps the shipped programs need under `ctx`.
fn program_rotation_steps(ctx: &CkksContext) -> Vec<i64> {
    let mut steps: Vec<i64> = PROGRAMS
        .iter()
        .flat_map(|(_, text)| compile_program(text, ctx).graph.required_rotation_steps())
        .collect();
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// Parses and lowers a shipped program (the unplanned graph).
///
/// # Panics
///
/// Panics if a shipped program no longer parses or lowers — a defect in
/// the repository, not in the measured run.
pub fn compile_program(text: &str, ctx: &CkksContext) -> poseidon_core::plan::CompiledProgram {
    let trace = poseidon_sim::program::parse(text).expect("shipped program parses");
    compile_trace(&trace, ctx, &CompileOptions::default()).expect("shipped program lowers")
}

/// Reference replies gathered before timing, plus what checking them
/// against the plaintext (or unplanned) reference found.
#[derive(Default)]
pub struct Check {
    refs: BTreeMap<u64, Vec<u8>>,
    /// FNV digest over every reference reply, in key order: repeats
    /// exactly for a given seed.
    pub digest: u64,
    /// Largest slot error over the checked replies.
    pub max_err: f64,
    /// Requests sent by the check.
    pub attempted: u64,
    /// Check requests that failed or came back wrong.
    pub failed: u64,
}

impl Check {
    fn record(
        &mut self,
        key: u64,
        reply: Result<Vec<u8>, ServeError>,
        err: impl FnOnce(&[u8]) -> Result<f64, String>,
    ) {
        self.attempted += 1;
        match reply {
            Ok(frame) => {
                match err(&frame) {
                    Ok(e) if e <= TOLERANCE => self.max_err = self.max_err.max(e),
                    Ok(e) => {
                        eprintln!("perfbench: reply {key:#x} off by {e:e}");
                        self.max_err = self.max_err.max(e);
                        self.failed += 1;
                    }
                    Err(msg) => {
                        eprintln!("perfbench: reply {key:#x} undecodable: {msg}");
                        self.failed += 1;
                    }
                }
                self.refs.insert(key, frame);
            }
            Err(e) => {
                eprintln!("perfbench: check request {key:#x} failed: {e}");
                self.failed += 1;
            }
        }
    }

    fn seal(&mut self) {
        let mut h = stats::FNV_BASIS;
        for (key, frame) in &self.refs {
            h = stats::fnv(h, &key.to_le_bytes());
            h = stats::fnv(h, frame);
        }
        self.digest = h;
    }

    /// Whether `frame` is bit-identical to the reference reply for `key`.
    pub fn matches(&self, key: u64, frame: &[u8]) -> bool {
        self.refs.get(&key).is_some_and(|r| r.as_slice() == frame)
    }

    /// Precision of the worst checked reply, in bits.
    pub fn precision_bits(&self) -> f64 {
        stats::precision_bits(self.max_err)
    }
}

/// Key of a single-op reply: input, op.
pub fn op_key(input: usize, op: SingleOp) -> u64 {
    ((input as u64) << 16) | op.index() as u64
}

/// Key of a program reply: program, input.
pub fn program_key(program: usize, input: usize) -> u64 {
    (1 << 48) | ((program as u64) << 16) | input as u64
}

/// Sends every distinct unit once, before timing, and checks each reply:
/// single ops against the slot-wise plaintext reference, programs
/// against the unplanned `Plan::passthrough` run on a bare `Evaluator`.
/// This is also the warm-up.
pub fn check(fx: &Fixture) -> Check {
    let mut check = Check::default();
    let client = &fx.server.clients[0];
    match fx.workload {
        Workload::PlannedPrograms => {
            let party = &fx.party;
            for (p, (_, text)) in PROGRAMS.iter().enumerate() {
                for (i, input) in party.inputs.iter().enumerate() {
                    let reply = client.program(&tenant_id(0), text, &input.fa);
                    check.record(program_key(p, i), reply, |frame| {
                        let expect = party.decrypt(&passthrough(party, text, &input.ca));
                        party.slot_error(frame, &expect)
                    });
                }
            }
        }
        Workload::OpBurst => {
            // Tenant t0 stands for every tenant: they share one keyset,
            // so their replies must be bit-identical to its.
            let party = &fx.party;
            for (i, input) in party.inputs.iter().enumerate() {
                for op in SingleOp::round() {
                    let reply = client
                        .request(&tenant_id(0), op.op(input))
                        .and_then(expect_blob);
                    check.record(op_key(i, op), reply, |frame| {
                        party.slot_error(frame, &op.reference(input))
                    });
                }
            }
        }
    }
    check.seal();
    check
}

/// Runs `text` unplanned (`Plan::passthrough`) on a bare evaluator with
/// every graph input bound to `a`, as the service binds them.
pub fn passthrough(party: &Party, text: &str, a: &Ciphertext) -> Ciphertext {
    let prog = compile_program(text, &party.ctx);
    let plan = Plan::passthrough(prog.graph);
    let inputs = vec![a.clone(); plan.graph.inputs().len()];
    let mut eval = he_ckks::eval::Evaluator::new(&party.ctx);
    execute(&plan, &mut eval, &inputs, &party.keys)
        .expect("unplanned reference execution")
        .outputs
        .pop()
        .expect("program has an output")
}

fn expect_blob(reply: Option<Vec<u8>>) -> Result<Vec<u8>, ServeError> {
    reply.ok_or_else(|| ServeError::Protocol("reply without a ciphertext".into()))
}

fn program_wire_bytes(text: &str, input: &Input, reply: Option<&Vec<u8>>) -> u64 {
    request_bytes(PROBE_TENANT, false, &[text.len(), input.fa.len()])
        + reply.map_or(0, |r| reply_bytes(r.len()))
}

fn single_wire_bytes(tenant: &str, op: SingleOp, input: &Input, reply: Option<&Vec<u8>>) -> u64 {
    request_bytes(tenant, matches!(op, SingleOp::Rotate(_)), &op.blobs(input))
        + reply.map_or(0, |r| reply_bytes(r.len()))
}

/// What the timed phase observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units sent.
    pub attempted: u64,
    /// Units that failed, were refused or came back wrong.
    pub failed: u64,
    /// Submit time and latency (submit to reply observed, ms) of every
    /// correct unit.
    pub latencies: Vec<(Instant, f64)>,
    /// Request and reply frame bytes.
    pub wire_bytes: u64,
    /// Wall time of the timed phase, s.
    pub elapsed_s: f64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies.extend(other.latencies);
        self.wire_bytes += other.wire_bytes;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Units completed correctly.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Correct units' latencies (ms) in submit order.
    fn ordered(&self) -> Vec<(Instant, f64)> {
        let mut v = self.latencies.clone();
        v.sort_by_key(|&(submit, _)| submit);
        v
    }

    /// Latency percentile `p`, ms: the median over [`stats::BLOCKS`]
    /// consecutive blocks of units, in submit order, of each block's
    /// nearest-rank percentile.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let lat: Vec<f64> = self.ordered().into_iter().map(|(_, ms)| ms).collect();
        stats::blocked_percentile(&lat, p, stats::BLOCKS).unwrap_or(0.0)
    }

    /// Correct units completed per second: the median over
    /// [`stats::BLOCKS`] equal stretches of time, from the first submit
    /// to the last reply, of each stretch's rate.
    pub fn throughput_per_s(&self) -> f64 {
        let ordered = self.ordered();
        let Some(&(start, _)) = ordered.first() else {
            return 0.0;
        };
        let replies: Vec<f64> = ordered
            .iter()
            .map(|&(submit, ms)| (submit - start).as_secs_f64() + ms / 1e3)
            .collect();
        let span = replies.iter().copied().fold(0.0, f64::max);
        stats::blocked_rate(&replies, span, stats::BLOCKS).unwrap_or(0.0)
    }

    fn unit(&mut self, ok: bool, (submit, reply): (Instant, Instant)) {
        self.attempted += 1;
        if ok {
            self.latencies
                .push((submit, (reply - submit).as_secs_f64() * 1e3));
        } else {
            self.failed += 1;
        }
    }
}

/// Span names recorded by the timed phase of a traced run.
pub mod span {
    /// One program or one `op_burst` round.
    pub const UNIT: &str = "client.unit";
    /// One request, submit to reply observed.
    pub const REQUEST: &str = "tcp.request";
    /// Comparing a reply with its reference.
    pub const COMPARE: &str = "client.compare";
}

fn time_span(
    rec: &mut Option<Recorder>,
    name: &'static str,
    (start, end): (Instant, Instant),
    parent: Option<SpanId>,
    unit: u64,
) -> Option<SpanId> {
    rec.as_mut()
        .map(|r| r.push_at(name, start, end, parent, unit))
}

/// Runs the closed loop for `seconds`, checking every reply against the
/// check's reference. With `trace`, spans around each client call are
/// recorded into the returned recorder.
pub fn drive(fx: &Fixture, check: &Check, seconds: f64, trace: bool) -> (Tally, Option<Recorder>) {
    let budget = Duration::from_secs_f64(seconds);
    match fx.workload {
        Workload::PlannedPrograms => drive_programs(fx, check, budget, trace),
        Workload::OpBurst => drive_burst(fx, check, budget, trace),
    }
}

fn drive_programs(
    fx: &Fixture,
    check: &Check,
    budget: Duration,
    trace: bool,
) -> (Tally, Option<Recorder>) {
    let base = Instant::now();
    let mut rec = trace.then(|| Recorder::with_origin(base));
    let party = &fx.party;
    let pairs = (0..PROGRAMS.len())
        .flat_map(|p| (0..party.inputs.len()).map(move |i| (p, i)))
        .collect();
    let mut units = Bag::new(pairs, rng_for(fx.seed, fx.workload.salt(), 1));
    let client = &fx.server.clients[0];
    let tenant = tenant_id(0);
    let mut tally = Tally::default();
    let mut unit = 0u64;
    while base.elapsed() < budget {
        let (p, i) = units.draw();
        let (text, input) = (PROGRAMS[p].1, &party.inputs[i]);
        let t0 = Instant::now();
        let reply = client.program(&tenant, text, &input.fa);
        let t1 = Instant::now();
        let ok = reply
            .as_ref()
            .is_ok_and(|frame| check.matches(program_key(p, i), frame));
        let t2 = Instant::now();
        tally.wire_bytes += program_wire_bytes(text, input, reply.as_ref().ok());
        tally.unit(ok, (t0, t1));
        let root = time_span(&mut rec, span::UNIT, (t0, t2), None, unit);
        time_span(&mut rec, span::REQUEST, (t0, t1), root, unit);
        time_span(&mut rec, span::COMPARE, (t1, t2), root, unit);
        unit += 1;
    }
    tally.elapsed_s = base.elapsed().as_secs_f64();
    (tally, rec)
}

fn drive_burst(
    fx: &Fixture,
    check: &Check,
    budget: Duration,
    trace: bool,
) -> (Tally, Option<Recorder>) {
    let party = &fx.party;
    let ops = SingleOp::round();
    let base = Instant::now();
    let results: Vec<(Tally, Option<Recorder>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..fx.tenants)
            .map(|t| {
                let client = &fx.server.clients[t % fx.server.clients.len()];
                let ops = &ops;
                s.spawn(move || {
                    let mut rec = trace.then(|| Recorder::with_origin(base));
                    let mut inputs = Bag::new(
                        (0..party.inputs.len()).collect(),
                        rng_for(fx.seed, fx.workload.salt(), 2 + t as u64),
                    );
                    let tenant = tenant_id(t);
                    let mut tally = Tally::default();
                    let mut unit = (t as u64) << 40;
                    while base.elapsed() < budget {
                        let i = inputs.draw();
                        let input = &party.inputs[i];
                        let r0 = Instant::now();
                        let pending: Vec<_> = ops
                            .iter()
                            .map(|&op| (op, Instant::now(), client.submit(&tenant, op.op(input))))
                            .collect();
                        let mut done = Vec::with_capacity(pending.len());
                        for (op, t0, sent) in pending {
                            let reply = sent.and_then(|p| p.wait()).and_then(expect_blob);
                            let t1 = Instant::now();
                            let ok = reply
                                .as_ref()
                                .is_ok_and(|frame| check.matches(op_key(i, op), frame));
                            tally.wire_bytes +=
                                single_wire_bytes(&tenant, op, input, reply.as_ref().ok());
                            tally.unit(ok, (t0, t1));
                            done.push((t0, t1));
                        }
                        let r1 = Instant::now();
                        let root = time_span(&mut rec, span::UNIT, (r0, r1), None, unit);
                        for (k, (t0, t1)) in done.into_iter().enumerate() {
                            time_span(&mut rec, span::REQUEST, (t0, t1), root, unit + k as u64);
                        }
                        unit += ops.len() as u64;
                    }
                    tally.elapsed_s = base.elapsed().as_secs_f64();
                    (tally, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut rec = trace.then(|| Recorder::with_origin(base));
    for (t, r) in results {
        tally.absorb(t);
        if let (Some(all), Some(r)) = (rec.as_mut(), r) {
            all.absorb(r);
        }
    }
    (tally, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bag_yields_every_item_once_per_round() {
        let mut bag = Bag::new((0..5).collect(), StdRng::seed_from_u64(3));
        for _ in 0..4 {
            let mut round: Vec<i32> = (0..5).map(|_| bag.draw()).collect();
            round.sort_unstable();
            assert_eq!(round, [0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn request_sizes_follow_the_protocol_layout() {
        // len prefix 4, id 8, opcode 1, flags 1, ttl 4, tenant 2 + 2,
        // steps 8, one blob 4 + 100.
        assert_eq!(
            request_bytes("t0", true, &[100]),
            4 + 8 + 1 + 1 + 4 + 2 + 2 + 8 + 104
        );
        assert_eq!(request_bytes("t0", false, &[10, 20]), 22 + 14 + 24);
        assert_eq!(reply_bytes(0), 17);
    }
}
