//! Codegen: turns marker metadata into BPF Collector programs (paper §3.1).
//!
//! "After the developer adds markers to the DBMS's source code, TS extracts
//! their embedded metadata [...] TS then generates the source code for a
//! BPF program to create the Collector component." Our codegen skips the
//! C-source intermediate and emits bytecode for the `tscout-bpf` VM
//! directly. Per-counter work is emitted as *bounded loops* — the
//! range-tracking verifier proves their trip counts and accepts the back
//! edges — which keeps the programs a fraction of the size of the
//! BCC-era fully-unrolled form. [`CodegenOptions::unroll_loops`] restores
//! full unrolling (the strategy required under a no-back-edge verifier);
//! both modes produce bit-identical samples.
//!
//! Three programs are generated per subsystem:
//!
//! * **BEGIN** — snapshots the enabled probes into the *begin* map, keyed
//!   by `(tid, depth)`. The depth counter makes nested/recursive OUs work
//!   (paper §5.2): a second `BEGIN` from the same thread pushes a deeper
//!   snapshot instead of clobbering the first.
//! * **END** — pops the matching snapshot, re-reads the probes, computes
//!   normalized deltas (including the perf multiplexing normalization of
//!   §4.1, done in integer math: `Δvalue · Δenabled / Δrunning`), and
//!   parks them in the *done* map keyed by tid.
//! * **FEATURES** — merges the done-map metrics with the feature payload
//!   from the marker context and publishes the finished sample to the
//!   perf ring buffer via `perf_event_output`.
//!
//! Each program returns 0 on success and 1 when markers arrive out of
//! order (END without BEGIN, FEATURES without END) — the Collector's
//! strict state machine (§5.1): the user-space side counts the error and
//! discards intermediate state.

use crate::data::{HEADER_WORDS, MAX_PAYLOAD_WORDS};
use tscout_bpf::asm::ProgramBuilder;
use tscout_bpf::insn::{self, AluOp, Cond, Helper, Size};
use tscout_bpf::{Insn, MapId};

use insn::{R0, R1, R10, R2, R3, R4, R5, R6, R7, R8, R9};

/// Loop-emission strategy for the generated Collector programs.
///
/// The default emits bounded loops: a counter register walks the
/// per-counter / per-word blocks and the verifier proves the trip count
/// by constant-propagating the counter through the back edge. Setting
/// `unroll_loops` replays the historical strategy of stamping every
/// iteration out inline, which a verifier without back-edge support
/// requires. Both strategies execute the identical sequence of stores
/// and helper calls, so the published samples are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodegenOptions {
    /// Emit fully unrolled per-counter blocks instead of bounded loops.
    pub unroll_loops: bool,
}

/// Which kernel-level probes a subsystem collects (paper Fig. 3: the
/// developer ticks CPU/memory/disk/network per subsystem). Memory is
/// always a *user-level* probe (§4.2) and therefore has no kernel flag:
/// its values arrive in the FEATURES payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeLayout {
    pub cpu: bool,
    pub disk: bool,
    pub net: bool,
}

/// Number of perf counters the CPU probe reads.
pub const CPU_COUNTERS: usize = 7;
/// Words per counter in a snapshot: value, time_enabled, time_running.
const SNAP_WORDS_PER_COUNTER: usize = 3;

impl ProbeLayout {
    /// Snapshot words: ktime + 3 per counter + 4 io + 4 net.
    pub fn snap_words(&self) -> usize {
        1 + if self.cpu {
            CPU_COUNTERS * SNAP_WORDS_PER_COUNTER
        } else {
            0
        } + if self.disk { 4 } else { 0 }
            + if self.net { 4 } else { 0 }
    }

    /// Word offset of the disk block within a snapshot.
    fn disk_word(&self) -> usize {
        1 + if self.cpu {
            CPU_COUNTERS * SNAP_WORDS_PER_COUNTER
        } else {
            0
        }
    }

    /// Word offset of the net block within a snapshot.
    fn net_word(&self) -> usize {
        self.disk_word() + if self.disk { 4 } else { 0 }
    }

    /// Metric words in the finished record: 7 CPU + 4 disk + 4 net.
    pub fn metric_words(&self) -> usize {
        (if self.cpu { CPU_COUNTERS } else { 0 })
            + if self.disk { 4 } else { 0 }
            + if self.net { 4 } else { 0 }
    }

    /// Done-map value words: start, elapsed, then metrics.
    pub fn done_words(&self) -> usize {
        2 + self.metric_words()
    }

    /// Human-readable metric names, in record order.
    pub fn metric_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if self.cpu {
            names.extend([
                "cpu_cycles",
                "instructions",
                "ref_cycles",
                "cache_references",
                "cache_misses",
                "branches",
                "branch_misses",
            ]);
        }
        if self.disk {
            names.extend([
                "disk_read_bytes",
                "disk_write_bytes",
                "disk_read_sys",
                "disk_write_sys",
            ]);
        }
        if self.net {
            names.extend([
                "net_bytes_sent",
                "net_bytes_recv",
                "net_segs_out",
                "net_segs_in",
            ]);
        }
        names
    }
}

/// Marker-context layout (the tracepoint arguments serialized for BPF):
/// words `[ou, tid, subsystem, flags, n_payload, payload × 32]`.
pub const CTX_WORDS: usize = 5 + MAX_PAYLOAD_WORDS;
/// Declared BPF context size in bytes.
pub const CTX_BYTES: usize = CTX_WORDS * 8;

/// Serialize a marker context for the Collector programs.
pub fn encode_ctx(
    ou: u64,
    tid: u64,
    subsystem: u64,
    flags: u64,
    payload: &[u64],
) -> [u8; CTX_BYTES] {
    let n = payload.len().min(MAX_PAYLOAD_WORDS);
    let header = [ou, tid, subsystem, flags, n as u64];
    let mut out = [0u8; CTX_BYTES];
    for (dst, w) in out
        .chunks_exact_mut(8)
        .zip(header.iter().chain(&payload[..n]))
    {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    out
}

// Stack frame offsets shared by the generated programs.
const OFF_TID_KEY: i32 = -8; // 8-byte map key: tid
const OFF_BKEY: i32 = -16; // 8-byte begin-map key: (tid << 8) | depth
const OFF_SCRATCH: i32 = -24; // 8-byte scratch value (depth writeback)

fn snap_base(probes: &ProbeLayout) -> i32 {
    -(24 + probes.snap_words() as i32 * 8)
}

fn snap_off(probes: &ProbeLayout, word: usize) -> i32 {
    snap_base(probes) + word as i32 * 8
}

/// Emit `for counter in 0..n { body }` as a guarded bounded loop:
///
/// ```text
///         mov  counter, 0
/// top:    jge  counter, n, after
///         <body>
///         add  counter, 1
///         ja   top
/// after:
/// ```
///
/// The verifier constant-propagates `counter` around the back edge, so
/// each traversal is concrete and the trip budget proves termination.
fn emit_counted_loop(
    b: &mut ProgramBuilder,
    counter: insn::Reg,
    n: usize,
    body: impl FnOnce(&mut ProgramBuilder),
) {
    b.mov_imm(counter, 0);
    let top = b.label();
    let after = b.label();
    b.bind(top);
    b.jump_if_imm(Cond::Ge, counter, n as i64, after);
    body(b);
    b.alu_imm(AluOp::Add, counter, 1);
    b.jump(top);
    b.bind(after);
}

/// Emit the probe-snapshot block: ktime + enabled probes onto the stack.
/// Clobbers R0–R5 (plus R9 as the loop counter unless unrolling);
/// preserves R6–R8.
fn emit_snapshot(b: &mut ProgramBuilder, probes: &ProbeLayout, opts: CodegenOptions) {
    b.call(Helper::KtimeGetNs);
    b.store_reg(Size::B8, R10, snap_off(probes, 0), R0);
    if probes.cpu {
        if opts.unroll_loops {
            for i in 0..CPU_COUNTERS {
                b.mov_imm(R1, i as i64);
                b.mov_reg(R2, R10);
                b.alu_imm(
                    AluOp::Add,
                    R2,
                    snap_off(probes, 1 + SNAP_WORDS_PER_COUNTER * i) as i64,
                );
                b.call(Helper::PerfEventReadBuf);
            }
        } else {
            // R9 walks the counter index; the 24-byte out-buffer slides
            // with it. The helper clobbers R1–R5, so everything but the
            // counter is rebuilt per iteration.
            emit_counted_loop(b, R9, CPU_COUNTERS, |b| {
                b.mov_reg(R1, R9);
                b.mov_reg(R3, R9);
                b.alu_imm(AluOp::Mul, R3, (SNAP_WORDS_PER_COUNTER * 8) as i64);
                b.mov_reg(R2, R10);
                b.alu_imm(AluOp::Add, R2, snap_off(probes, 1) as i64);
                b.alu_reg(AluOp::Add, R2, R3);
                b.call(Helper::PerfEventReadBuf);
            });
        }
    }
    if probes.disk {
        b.mov_reg(R1, R10);
        b.alu_imm(AluOp::Add, R1, snap_off(probes, probes.disk_word()) as i64);
        b.call(Helper::ReadTaskIo);
    }
    if probes.net {
        b.mov_reg(R1, R10);
        b.alu_imm(AluOp::Add, R1, snap_off(probes, probes.net_word()) as i64);
        b.call(Helper::ReadTcpSock);
    }
}

/// Load `tid` from the context into R6 and store it as the tid map key.
fn emit_tid_key(b: &mut ProgramBuilder) {
    b.load(Size::B8, R6, R1, 8); // ctx word 1 = tid
    b.store_reg(Size::B8, R10, OFF_TID_KEY, R6);
}

/// `R2 = fp + off` (pointer argument setup).
fn fp_ptr(b: &mut ProgramBuilder, reg: insn::Reg, off: i32) {
    b.mov_reg(reg, R10);
    b.alu_imm(AluOp::Add, reg, off as i64);
}

/// Generate the BEGIN program with default options (bounded loops).
pub fn gen_begin(probes: &ProbeLayout, depth_map: MapId, begin_map: MapId) -> Vec<Insn> {
    gen_begin_with(probes, depth_map, begin_map, CodegenOptions::default())
}

/// Generate the BEGIN program.
pub fn gen_begin_with(
    probes: &ProbeLayout,
    depth_map: MapId,
    begin_map: MapId,
    opts: CodegenOptions,
) -> Vec<Insn> {
    let mut b = ProgramBuilder::new();
    emit_tid_key(&mut b);

    // R7 = current depth (0 when absent).
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapLookup);
    b.mov_imm(R7, 0);
    let no_depth = b.label();
    b.jump_if_imm(Cond::Eq, R0, 0, no_depth);
    b.load(Size::B8, R7, R0, 0);
    b.bind(no_depth);

    emit_snapshot(&mut b, probes, opts);

    // bkey = (tid << 8) | depth.
    b.mov_reg(R8, R6);
    b.alu_imm(AluOp::Lsh, R8, 8);
    b.alu_reg(AluOp::Or, R8, R7);
    b.store_reg(Size::B8, R10, OFF_BKEY, R8);

    // begin[bkey] = snapshot.
    b.load_map(R1, begin_map);
    fp_ptr(&mut b, R2, OFF_BKEY);
    fp_ptr(&mut b, R3, snap_base(probes));
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);

    // depth[tid] = depth + 1.
    b.alu_imm(AluOp::Add, R7, 1);
    b.store_reg(Size::B8, R10, OFF_SCRATCH, R7);
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    fp_ptr(&mut b, R3, OFF_SCRATCH);
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);

    b.mov_imm(R0, 0);
    b.exit();
    b.resolve()
        .expect("begin codegen produced invalid assembly")
}

/// Generate the END program with default options (bounded loops).
pub fn gen_end(
    probes: &ProbeLayout,
    depth_map: MapId,
    begin_map: MapId,
    done_map: MapId,
) -> Vec<Insn> {
    gen_end_with(
        probes,
        depth_map,
        begin_map,
        done_map,
        CodegenOptions::default(),
    )
}

/// Generate the END program.
pub fn gen_end_with(
    probes: &ProbeLayout,
    depth_map: MapId,
    begin_map: MapId,
    done_map: MapId,
    opts: CodegenOptions,
) -> Vec<Insn> {
    let done_base = snap_base(probes) - probes.done_words() as i32 * 8;
    let done_off = |w: usize| done_base + w as i32 * 8;

    let mut b = ProgramBuilder::new();
    let err = b.label();
    emit_tid_key(&mut b);

    // depth must exist and be > 0.
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapLookup);
    b.jump_if_imm(Cond::Eq, R0, 0, err);
    b.load(Size::B8, R7, R0, 0);
    b.jump_if_imm(Cond::Eq, R7, 0, err);
    b.alu_imm(AluOp::Sub, R7, 1);
    b.store_reg(Size::B8, R10, OFF_SCRATCH, R7);
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    fp_ptr(&mut b, R3, OFF_SCRATCH);
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);

    // bkey and snapshot lookup.
    b.mov_reg(R8, R6);
    b.alu_imm(AluOp::Lsh, R8, 8);
    b.alu_reg(AluOp::Or, R8, R7);
    b.store_reg(Size::B8, R10, OFF_BKEY, R8);
    b.load_map(R1, begin_map);
    fp_ptr(&mut b, R2, OFF_BKEY);
    b.call(Helper::MapLookup);
    b.jump_if_imm(Cond::Eq, R0, 0, err);
    b.mov_reg(R8, R0); // R8 = begin snapshot pointer

    // Fresh snapshot of the probes.
    emit_snapshot(&mut b, probes, opts);

    // done[0] = start; done[1] = now - start.
    b.load(Size::B8, R2, R8, 0);
    b.store_reg(Size::B8, R10, done_off(0), R2);
    b.load(Size::B8, R3, R10, snap_off(probes, 0));
    b.alu_reg(AluOp::Sub, R3, R2);
    b.store_reg(Size::B8, R10, done_off(1), R3);

    let mut done_w = 2usize;
    if probes.cpu {
        if opts.unroll_loops {
            for i in 0..CPU_COUNTERS {
                let vw = 1 + SNAP_WORDS_PER_COUNTER * i;
                // Δvalue
                b.load(Size::B8, R2, R10, snap_off(probes, vw));
                b.load(Size::B8, R3, R8, (vw * 8) as i32);
                b.alu_reg(AluOp::Sub, R2, R3);
                // Δenabled
                b.load(Size::B8, R3, R10, snap_off(probes, vw + 1));
                b.load(Size::B8, R4, R8, ((vw + 1) * 8) as i32);
                b.alu_reg(AluOp::Sub, R3, R4);
                // Δrunning
                b.load(Size::B8, R4, R10, snap_off(probes, vw + 2));
                b.load(Size::B8, R5, R8, ((vw + 2) * 8) as i32);
                b.alu_reg(AluOp::Sub, R4, R5);
                // normalized = Δvalue · Δenabled / Δrunning (0 when Δrunning = 0)
                b.alu_reg(AluOp::Mul, R2, R3);
                b.alu_reg(AluOp::Div, R2, R4);
                b.store_reg(Size::B8, R10, done_off(done_w + i), R2);
            }
        } else {
            // Loop form of the same computation. Per counter i: R1 walks
            // the done slot (stride 8), R3/R4 walk the fresh/begin
            // counter blocks (stride 24). No helper calls inside, so
            // R0–R5 are free scratch; R9 is the counter.
            emit_counted_loop(&mut b, R9, CPU_COUNTERS, |b| {
                b.mov_reg(R0, R9);
                b.alu_imm(AluOp::Lsh, R0, 3); // 8·i
                b.mov_reg(R1, R10);
                b.alu_reg(AluOp::Add, R1, R0); // done slot base
                b.mov_reg(R2, R0);
                b.alu_imm(AluOp::Mul, R2, SNAP_WORDS_PER_COUNTER as i64); // 24·i
                b.mov_reg(R3, R10);
                b.alu_reg(AluOp::Add, R3, R2); // fresh counter block base
                b.mov_reg(R4, R8);
                b.alu_reg(AluOp::Add, R4, R2); // begin counter block base
                                               // Δvalue
                b.load(Size::B8, R0, R3, snap_off(probes, 1));
                b.load(Size::B8, R5, R4, 8);
                b.alu_reg(AluOp::Sub, R0, R5);
                // Δenabled
                b.load(Size::B8, R2, R3, snap_off(probes, 2));
                b.load(Size::B8, R5, R4, 16);
                b.alu_reg(AluOp::Sub, R2, R5);
                b.alu_reg(AluOp::Mul, R0, R2);
                // Δrunning
                b.load(Size::B8, R2, R3, snap_off(probes, 3));
                b.load(Size::B8, R5, R4, 24);
                b.alu_reg(AluOp::Sub, R2, R5);
                b.alu_reg(AluOp::Div, R0, R2);
                b.store_reg(Size::B8, R1, done_off(2), R0);
            });
        }
        done_w += CPU_COUNTERS;
    }
    // The disk and net blocks are contiguous in both the snapshot and the
    // done record, so one loop covers whichever subset is enabled.
    let io_words = if probes.disk { 4 } else { 0 } + if probes.net { 4 } else { 0 };
    if io_words > 0 {
        let first_word = probes.disk_word();
        if opts.unroll_loops {
            for j in 0..io_words {
                let w = first_word + j;
                b.load(Size::B8, R2, R10, snap_off(probes, w));
                b.load(Size::B8, R3, R8, (w * 8) as i32);
                b.alu_reg(AluOp::Sub, R2, R3);
                b.store_reg(Size::B8, R10, done_off(done_w + j), R2);
            }
        } else {
            emit_counted_loop(&mut b, R9, io_words, |b| {
                b.mov_reg(R0, R9);
                b.alu_imm(AluOp::Lsh, R0, 3); // 8·k
                b.mov_reg(R1, R10);
                b.alu_reg(AluOp::Add, R1, R0);
                b.mov_reg(R2, R8);
                b.alu_reg(AluOp::Add, R2, R0);
                b.load(Size::B8, R3, R1, snap_off(probes, first_word));
                b.load(Size::B8, R4, R2, (first_word * 8) as i32);
                b.alu_reg(AluOp::Sub, R3, R4);
                b.store_reg(Size::B8, R1, done_off(done_w), R3);
            });
        }
        done_w += io_words;
    }
    debug_assert_eq!(done_w, probes.done_words());

    // done[tid] = deltas; delete begin[bkey].
    b.load_map(R1, done_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    fp_ptr(&mut b, R3, done_base);
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);
    b.load_map(R1, begin_map);
    fp_ptr(&mut b, R2, OFF_BKEY);
    b.call(Helper::MapDelete);

    b.mov_imm(R0, 0);
    b.exit();
    b.bind(err);
    b.mov_imm(R0, 1);
    b.exit();
    b.resolve().expect("end codegen produced invalid assembly")
}

/// Generate the FEATURES program with default options (bounded loops).
pub fn gen_features(probes: &ProbeLayout, done_map: MapId, ring_map: MapId) -> Vec<Insn> {
    gen_features_with(probes, done_map, ring_map, CodegenOptions::default())
}

/// Generate the FEATURES program. `metric_words` must match the probe
/// layout used for BEGIN/END.
pub fn gen_features_with(
    probes: &ProbeLayout,
    done_map: MapId,
    ring_map: MapId,
    opts: CodegenOptions,
) -> Vec<Insn> {
    let m = probes.metric_words();
    let rec_words = HEADER_WORDS + m + MAX_PAYLOAD_WORDS;
    let rec_bytes = rec_words * 8;
    let rec_base = -(8 + rec_bytes as i32);
    let rec_off = |w: usize| rec_base + w as i32 * 8;

    let mut b = ProgramBuilder::new();
    let err = b.label();

    b.mov_reg(R9, R1); // preserve ctx pointer across calls
    emit_tid_key(&mut b);

    b.load_map(R1, done_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapLookup);
    b.jump_if_imm(Cond::Eq, R0, 0, err);
    b.mov_reg(R8, R0); // R8 = done-map deltas

    // Header: ou, tid, subsystem, flags, start, elapsed, M, n_payload.
    for (rec_w, ctx_byte) in [(0usize, 0i32), (2, 16), (3, 24), (7, 32)] {
        b.load(Size::B8, R2, R9, ctx_byte);
        b.store_reg(Size::B8, R10, rec_off(rec_w), R2);
    }
    b.store_reg(Size::B8, R10, rec_off(1), R6);
    b.load(Size::B8, R2, R8, 0);
    b.store_reg(Size::B8, R10, rec_off(4), R2);
    b.load(Size::B8, R2, R8, 8);
    b.store_reg(Size::B8, R10, rec_off(5), R2);
    b.store_imm(Size::B8, R10, rec_off(6), m as i64);

    // Metrics from the done map, then the full payload copy (the
    // zero-padded context keeps the latter branch-free). No helper calls
    // inside either loop, so R0–R5 are scratch; R7 is the counter (R6 =
    // tid, R8 = done pointer, R9 = ctx pointer stay live).
    if opts.unroll_loops {
        for i in 0..m {
            b.load(Size::B8, R2, R8, ((2 + i) * 8) as i32);
            b.store_reg(Size::B8, R10, rec_off(HEADER_WORDS + i), R2);
        }
        for j in 0..MAX_PAYLOAD_WORDS {
            b.load(Size::B8, R2, R9, ((5 + j) * 8) as i32);
            b.store_reg(Size::B8, R10, rec_off(HEADER_WORDS + m + j), R2);
        }
    } else {
        if m > 0 {
            emit_counted_loop(&mut b, R7, m, |b| {
                b.mov_reg(R0, R7);
                b.alu_imm(AluOp::Lsh, R0, 3); // 8·i
                b.mov_reg(R1, R8);
                b.alu_reg(AluOp::Add, R1, R0);
                b.load(Size::B8, R2, R1, 16); // done[2 + i]
                b.mov_reg(R3, R10);
                b.alu_reg(AluOp::Add, R3, R0);
                b.store_reg(Size::B8, R3, rec_off(HEADER_WORDS), R2);
            });
        }
        emit_counted_loop(&mut b, R7, MAX_PAYLOAD_WORDS, |b| {
            b.mov_reg(R0, R7);
            b.alu_imm(AluOp::Lsh, R0, 3); // 8·j
            b.mov_reg(R1, R9);
            b.alu_reg(AluOp::Add, R1, R0);
            b.load(Size::B8, R2, R1, 40); // ctx word 5 + j
            b.mov_reg(R3, R10);
            b.alu_reg(AluOp::Add, R3, R0);
            b.store_reg(Size::B8, R3, rec_off(HEADER_WORDS + m), R2);
        });
    }

    // Publish and clean up.
    b.load_map(R1, ring_map);
    fp_ptr(&mut b, R2, rec_base);
    b.mov_imm(R3, rec_bytes as i64);
    b.call(Helper::PerfEventOutput);
    b.load_map(R1, done_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapDelete);

    b.mov_imm(R0, 0);
    b.exit();
    b.bind(err);
    b.mov_imm(R0, 1);
    b.exit();
    b.resolve()
        .expect("features codegen produced invalid assembly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout_bpf::maps::MapDef;
    use tscout_bpf::{verify, MapRegistry};

    fn all_probes() -> ProbeLayout {
        ProbeLayout {
            cpu: true,
            disk: true,
            net: true,
        }
    }

    fn setup(probes: &ProbeLayout) -> (MapRegistry, MapId, MapId, MapId, MapId) {
        let mut maps = MapRegistry::new();
        let depth = maps.create(MapDef::hash("depth", 8, 8, 256));
        let begin = maps.create(MapDef::hash("begin", 8, probes.snap_words() * 8, 1024));
        let done = maps.create(MapDef::hash("done", 8, probes.done_words() * 8, 256));
        let ring = maps.create(MapDef::perf_event_array("ring", 64));
        (maps, depth, begin, done, ring)
    }

    #[test]
    fn layout_math() {
        let p = all_probes();
        assert_eq!(p.snap_words(), 30); // 1 + 21 + 4 + 4
        assert_eq!(p.metric_words(), 15);
        assert_eq!(p.done_words(), 17);
        assert_eq!(p.metric_names().len(), 15);

        let cpu_only = ProbeLayout {
            cpu: true,
            disk: false,
            net: false,
        };
        assert_eq!(cpu_only.snap_words(), 22);
        assert_eq!(cpu_only.metric_words(), 7);

        let none = ProbeLayout {
            cpu: false,
            disk: false,
            net: false,
        };
        assert_eq!(none.snap_words(), 1);
        assert_eq!(none.metric_words(), 0);
    }

    #[test]
    fn generated_programs_pass_the_verifier_all_probe_combos() {
        for unroll_loops in [false, true] {
            let opts = CodegenOptions { unroll_loops };
            for cpu in [false, true] {
                for disk in [false, true] {
                    for net in [false, true] {
                        let p = ProbeLayout { cpu, disk, net };
                        let (maps, depth, begin, done, ring) = setup(&p);
                        for (name, prog) in [
                            ("begin", gen_begin_with(&p, depth, begin, opts)),
                            ("end", gen_end_with(&p, depth, begin, done, opts)),
                            ("features", gen_features_with(&p, done, ring, opts)),
                        ] {
                            verify(&prog, &maps, CTX_BYTES).unwrap_or_else(|e| {
                                panic!(
                                    "{name} (cpu={cpu},disk={disk},net={net},\
                                     unroll={unroll_loops}) rejected: {e}\n{}",
                                    tscout_bpf::insn::disassemble(&prog)
                                )
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_loops_shrink_every_program() {
        let p = all_probes();
        let (_, depth, begin, done, ring) = setup(&p);
        let unroll = CodegenOptions { unroll_loops: true };
        let looped = CodegenOptions::default();
        for (name, small, big) in [
            (
                "begin",
                gen_begin_with(&p, depth, begin, looped).len(),
                gen_begin_with(&p, depth, begin, unroll).len(),
            ),
            (
                "end",
                gen_end_with(&p, depth, begin, done, looped).len(),
                gen_end_with(&p, depth, begin, done, unroll).len(),
            ),
            (
                "features",
                gen_features_with(&p, done, ring, looped).len(),
                gen_features_with(&p, done, ring, unroll).len(),
            ),
        ] {
            assert!(
                small < big,
                "{name}: loop form ({small}) not smaller than unrolled ({big})"
            );
        }
    }

    /// Run the full BEGIN/END/FEATURES pipeline in both emission modes
    /// with identical worlds and assert the raw ring-buffer bytes match:
    /// the loop rewrite must not change a single bit of the samples.
    #[test]
    fn loop_and_unrolled_modes_produce_identical_samples() {
        use tscout_bpf::vm::{NullWorld, Vm};
        for p in [
            all_probes(),
            ProbeLayout {
                cpu: true,
                disk: false,
                net: true,
            },
            ProbeLayout {
                cpu: false,
                disk: false,
                net: false,
            },
        ] {
            let mut rings: Vec<Vec<Vec<u8>>> = Vec::new();
            for unroll_loops in [false, true] {
                let opts = CodegenOptions { unroll_loops };
                let (mut maps, depth, begin, done, ring) = setup(&p);
                let b_prog = gen_begin_with(&p, depth, begin, opts);
                let e_prog = gen_end_with(&p, depth, begin, done, opts);
                let f_prog = gen_features_with(&p, done, ring, opts);
                let ctx = encode_ctx(5, 42, 1, 0, &[77, 88, 99]);
                let mut world = NullWorld {
                    time_ns: 100,
                    pid_tgid: 42,
                };
                assert_eq!(Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap().0, 0);
                world.time_ns = 600;
                assert_eq!(Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap().0, 0);
                assert_eq!(Vm::run(&f_prog, &ctx, &mut maps, &mut world).unwrap().0, 0);
                rings.push(maps.ring_drain(ring, 10));
            }
            assert_eq!(rings[0], rings[1], "samples differ for {p:?}");
            assert_eq!(rings[0].len(), 1);
        }
    }

    #[test]
    fn programs_are_hundreds_of_instructions() {
        // Paper §5.1: "compiled BPF programs only contain 100s of
        // instructions" — sanity-check we are in the same regime.
        let p = all_probes();
        let (_, depth, begin, done, ring) = setup(&p);
        let lens = [
            gen_begin(&p, depth, begin).len(),
            gen_end(&p, depth, begin, done).len(),
            gen_features(&p, done, ring).len(),
        ];
        for l in lens {
            assert!(l > 20 && l < 1000, "unexpected program size {l}");
        }
    }

    #[test]
    fn ctx_encode_layout() {
        let ctx = encode_ctx(7, 3, 2, 0, &[11, 22]);
        assert_eq!(ctx.len(), CTX_BYTES);
        let word = |i: usize| u64::from_le_bytes(ctx[i * 8..(i + 1) * 8].try_into().unwrap());
        assert_eq!(word(0), 7);
        assert_eq!(word(1), 3);
        assert_eq!(word(2), 2);
        assert_eq!(word(3), 0);
        assert_eq!(word(4), 2);
        assert_eq!(word(5), 11);
        assert_eq!(word(6), 22);
        assert_eq!(word(7), 0); // zero padding
    }

    #[test]
    fn ctx_encode_clamps_payload() {
        let big = vec![9u64; 100];
        let ctx = encode_ctx(0, 0, 0, 0, &big);
        let n = u64::from_le_bytes(ctx[32..40].try_into().unwrap());
        assert_eq!(n, MAX_PAYLOAD_WORDS as u64);
    }

    #[test]
    fn end_without_begin_returns_error_code() {
        use tscout_bpf::vm::{NullWorld, Vm};
        let p = all_probes();
        let (mut maps, depth, begin, done, _ring) = setup(&p);
        let prog = gen_end(&p, depth, begin, done);
        let ctx = encode_ctx(1, 42, 0, 0, &[]);
        let mut world = NullWorld::default();
        let (r0, _) = Vm::run(&prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 1, "END without BEGIN must signal a state-machine error");
    }

    #[test]
    fn begin_end_features_round_trip_through_vm() {
        use crate::data::decode_record;
        use tscout_bpf::vm::{NullWorld, Vm};
        let p = all_probes();
        let (mut maps, depth, begin, done, ring) = setup(&p);
        let b_prog = gen_begin(&p, depth, begin);
        let e_prog = gen_end(&p, depth, begin, done);
        let f_prog = gen_features(&p, done, ring);
        let ctx = encode_ctx(5, 42, 1, 0, &[77, 88]);
        let mut world = NullWorld {
            time_ns: 100,
            pid_tgid: 42,
        };
        let (r0, _) = Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        world.time_ns = 600;
        let (r0, _) = Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        let (r0, _) = Vm::run(&f_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);

        let recs = maps.ring_drain(ring, 10);
        assert_eq!(recs.len(), 1);
        let rec = decode_record(&recs[0]).unwrap();
        assert_eq!(rec.ou, 5);
        assert_eq!(rec.tid, 42);
        assert_eq!(rec.subsystem, 1);
        assert_eq!(rec.start_ns, 100);
        assert_eq!(rec.elapsed_ns, 500);
        assert_eq!(rec.metrics.len(), 15);
        assert_eq!(rec.payload, vec![77, 88]);
        // Depth returned to zero; maps drained.
        assert_eq!(
            maps.lookup(depth, &42u64.to_le_bytes()).unwrap(),
            &0u64.to_le_bytes()
        );
        assert_eq!(maps.entries(begin), 0);
        assert_eq!(maps.entries(done), 0);
    }

    #[test]
    fn nested_ous_use_depth_keys() {
        use tscout_bpf::vm::{NullWorld, Vm};
        let p = ProbeLayout {
            cpu: false,
            disk: false,
            net: false,
        };
        let (mut maps, depth, begin, done, ring) = setup(&p);
        let b_prog = gen_begin(&p, depth, begin);
        let e_prog = gen_end(&p, depth, begin, done);
        let f_prog = gen_features(&p, done, ring);
        let ctx = encode_ctx(1, 9, 0, 0, &[]);
        let mut world = NullWorld {
            time_ns: 0,
            pid_tgid: 9,
        };

        // B1 (t=0) B2 (t=10) E2 (t=30) F2 E1 (t=100) F1
        Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap();
        world.time_ns = 10;
        Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(maps.entries(begin), 2);
        world.time_ns = 30;
        let (r0, _) = Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        Vm::run(&f_prog, &ctx, &mut maps, &mut world).unwrap();
        world.time_ns = 100;
        let (r0, _) = Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        Vm::run(&f_prog, &ctx, &mut maps, &mut world).unwrap();

        let recs: Vec<_> = maps
            .ring_drain(ring, 10)
            .iter()
            .map(|r| crate::data::decode_record(r).unwrap())
            .collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].elapsed_ns, 20); // inner: 30 - 10
        assert_eq!(recs[1].elapsed_ns, 100); // outer: 100 - 0
    }
}
