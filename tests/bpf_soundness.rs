//! Randomized tests for the BPF substrate: the verifier's guarantees
//! must hold at runtime.
//!
//! The central property mirrors the kernel's contract: **any program the
//! verifier accepts executes without a memory fault**, for arbitrary
//! context bytes. Conversely the verifier must never panic on garbage
//! programs. Random programs are generated over the full instruction
//! set, biased toward plausible shapes so a useful fraction verifies.
//! Finally the interpreter must be total on its own: unverified programs
//! with map helpers and wild or stale pointers end in `Ok` or a
//! `VmError`, never a panic.
//!
//! Originally `proptest` properties; now driven by the in-workspace
//! deterministic RNG (fixed seeds, fixed case counts) so the suite
//! builds offline and failures reproduce exactly.

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::bpf::insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src};
use tscout_suite::bpf::maps::MapDef;
use tscout_suite::bpf::vm::{
    NullWorld, Vm, VmError, CTX_BASE, HANDLE_BASE, MAPV_BASE, STACK_BASE, STACK_SIZE,
};
use tscout_suite::bpf::{verify, MapId, MapRegistry};

fn maps() -> MapRegistry {
    let mut m = MapRegistry::new();
    m.create(MapDef::hash("h", 8, 16, 32));
    m.create(MapDef::stack("s", 8, 8));
    m.create(MapDef::perf_event_array("r", 16));
    m
}

fn arb_reg(rng: &mut StdRng) -> Reg {
    Reg(rng.random_range(0u8..=10))
}

fn arb_src(rng: &mut StdRng) -> Src {
    if rng.random_bool(0.5) {
        Src::Reg(arb_reg(rng))
    } else {
        Src::Imm(rng.random_range(-600i64..600))
    }
}

const ALU_OPS: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Mod,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Lsh,
    AluOp::Rsh,
    AluOp::Arsh,
    AluOp::Mov,
    AluOp::Neg,
];

const SIZES: [Size; 4] = [Size::B1, Size::B2, Size::B4, Size::B8];

const CONDS: [Cond; 5] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::SGt];

const HELPERS: [Helper; 11] = [
    Helper::MapLookup,
    Helper::MapUpdate,
    Helper::MapDelete,
    Helper::MapPush,
    Helper::MapPop,
    Helper::PerfEventReadBuf,
    Helper::ReadTaskIo,
    Helper::ReadTcpSock,
    Helper::PerfEventOutput,
    Helper::KtimeGetNs,
    Helper::GetCurrentPidTgid,
];

fn arb_insn(rng: &mut StdRng) -> Insn {
    // Extra weight on `mov dst, imm`: it initializes registers, which is
    // what most random programs need to get past the verifier, keeping
    // the verified-programs property from going vacuous.
    if rng.random_bool(0.25) {
        return Insn::Alu {
            op: AluOp::Mov,
            dst: arb_reg(rng),
            src: Src::Imm(rng.random_range(-600i64..600)),
        };
    }
    match rng.random_range(0..7) {
        0 => Insn::Alu {
            op: ALU_OPS[rng.random_range(0..ALU_OPS.len())],
            dst: arb_reg(rng),
            src: arb_src(rng),
        },
        1 => Insn::Load {
            size: SIZES[rng.random_range(0..SIZES.len())],
            dst: arb_reg(rng),
            base: arb_reg(rng),
            off: rng.random_range(-520i32..64),
        },
        2 => Insn::Store {
            size: SIZES[rng.random_range(0..SIZES.len())],
            base: arb_reg(rng),
            off: rng.random_range(-520i32..64),
            src: arb_src(rng),
        },
        // Forward offsets only: this suite exercises the loop-free
        // fragment; random *loops* live in `verifier_differential.rs`.
        3 => Insn::Jump {
            cond: if rng.random_bool(0.5) {
                Some((
                    CONDS[rng.random_range(0..CONDS.len())],
                    arb_reg(rng),
                    arb_src(rng),
                ))
            } else {
                None
            },
            off: rng.random_range(0i32..6),
        },
        4 => Insn::Call {
            helper: HELPERS[rng.random_range(0..HELPERS.len())],
        },
        5 => Insn::LoadMap {
            dst: Reg(1),
            map: MapId(rng.random_range(0u32..4)),
        },
        _ => Insn::Exit,
    }
}

fn arb_body(rng: &mut StdRng, max_len: usize) -> Vec<Insn> {
    let len = rng.random_range(1..max_len);
    (0..len).map(|_| arb_insn(rng)).collect()
}

/// The kernel contract: verified ⟹ no runtime fault, for any ctx.
#[test]
fn verified_programs_never_fault() {
    let mut rng = StdRng::seed_from_u64(0xB9F_50D);
    let mut verified = 0usize;
    for _ in 0..2048 {
        let mut prog = arb_body(&mut rng, 40);
        prog.push(Insn::Exit); // give random programs a chance to terminate
        let ctx: Vec<u8> = (0..rng.random_range(0usize..64))
            .map(|_| rng.random_range(0u8..=255))
            .collect();
        let mut m = maps();
        if verify(&prog, &m, 64).is_ok() {
            verified += 1;
            let mut world = NullWorld::default();
            match Vm::run(&prog, &ctx, &mut m, &mut world) {
                Ok(_) => {}
                Err(e) => {
                    // This generator emits forward jumps only, so fuel
                    // exhaustion is impossible here; any fault is a
                    // verifier soundness bug.
                    panic!(
                        "verifier accepted a faulting program: {e}\n{}",
                        tscout_suite::bpf::insn::disassemble(&prog)
                    );
                }
            }
        }
    }
    // The generator is biased toward plausible shapes; if nothing ever
    // verifies the property above is vacuous.
    assert!(
        verified > 20,
        "only {verified}/2048 programs verified — generator broken?"
    );
}

/// The verifier itself must be total: never panic, always an answer.
#[test]
fn verifier_is_total() {
    let mut rng = StdRng::seed_from_u64(0x0007_07A1);
    for _ in 0..512 {
        let len = rng.random_range(0usize..60);
        let prog: Vec<Insn> = (0..len).map(|_| arb_insn(&mut rng)).collect();
        let ctx_size = rng.random_range(0usize..128);
        let m = maps();
        let _ = verify(&prog, &m, ctx_size);
    }
}

/// Division and modulo never trap at runtime (eBPF semantics), even in
/// unverified programs, as long as addresses are valid.
#[test]
fn div_mod_never_trap() {
    use tscout_suite::bpf::asm::ProgramBuilder;
    use tscout_suite::bpf::insn::{R0, R6};
    let mut rng = StdRng::seed_from_u64(0x0D17);
    for case in 0..256 {
        let a = rng.random::<u64>() as i64;
        // Make sure zero divisors are well covered.
        let b = if case % 4 == 0 {
            0
        } else {
            rng.random::<u64>() as i64
        };
        let mut bld = ProgramBuilder::new();
        bld.mov_imm(R0, a);
        bld.mov_imm(R6, b);
        bld.alu_reg(AluOp::Div, R0, R6);
        bld.alu_reg(AluOp::Mod, R0, R6);
        bld.exit();
        let prog = bld.resolve().unwrap();
        let mut m = maps();
        let mut world = NullWorld::default();
        assert!(
            Vm::run(&prog, &[], &mut m, &mut world).is_ok(),
            "a={a} b={b}"
        );
    }
}

/// Stack round trip: arbitrary u64s written at arbitrary aligned offsets
/// read back exactly.
#[test]
fn stack_round_trip() {
    use tscout_suite::bpf::asm::ProgramBuilder;
    use tscout_suite::bpf::insn::{R0, R10, R6};
    let mut rng = StdRng::seed_from_u64(0x0005_7AC4);
    for _ in 0..256 {
        let v = rng.random::<u64>();
        let slot = rng.random_range(1usize..64);
        let off = -(8 * slot as i32);
        let mut bld = ProgramBuilder::new();
        bld.mov_imm(R6, v as i64);
        bld.store_reg(Size::B8, R10, off, R6);
        bld.load(Size::B8, R0, R10, off);
        bld.exit();
        let prog = bld.resolve().unwrap();
        let mut m = maps();
        verify(&prog, &m, 0).unwrap();
        let mut world = NullWorld::default();
        let (r0, _) = Vm::run(&prog, &[], &mut m, &mut world).unwrap();
        assert_eq!(r0, v);
    }
}

// ---------------------------------------------------------------------
// Untrusted programs: the VM itself must be total.
// ---------------------------------------------------------------------

/// Maps for the untrusted-program loop: every kind, plus a hash map whose
/// keys and values exceed any inline buffer in the VM or the maps.
fn robust_maps() -> MapRegistry {
    let mut m = MapRegistry::new();
    m.create(MapDef::hash("h", 8, 16, 4));
    m.create(MapDef::array("a", 8, 4));
    m.create(MapDef::stack("s", 8, 8));
    m.create(MapDef::perf_event_array("r", 16));
    m.create(MapDef::hash("big", 40, 600, 4));
    m
}

/// Map ids 0..=6: the five real maps and two that do not exist.
fn arb_map(rng: &mut StdRng) -> MapId {
    MapId(rng.random_range(0u32..7))
}

const KEY_OFF: i32 = -48; // 40-byte key window (8-byte keys use its start)
const VAL_OFF: i32 = -112; // 64 bytes of value scratch below the key

/// A register value a helper or access might see: stack and context
/// pointers, map handles (valid or not), and wild map-value pointers into
/// dereference entries that may never have been created.
fn arb_ptr(rng: &mut StdRng) -> i64 {
    (match rng.random_range(0..6) {
        0 => STACK_BASE + STACK_SIZE as u64 - rng.random_range(0u64..600),
        1 => CTX_BASE + rng.random_range(0u64..720),
        2 => HANDLE_BASE | rng.random_range(0u64..7),
        3 => MAPV_BASE + (rng.random_range(0u64..6) << 32) + rng.random_range(0u64..24),
        4 => MAPV_BASE + (rng.random_range(0u64..3) << 32) + (rng.random::<u64>() & 0xFFFF_FFFF),
        _ => rng.random::<u64>(),
    }) as i64
}

fn mov(dst: Reg, v: i64) -> Insn {
    Insn::Alu {
        op: AluOp::Mov,
        dst,
        src: Src::Imm(v),
    }
}

fn fp_ptr(out: &mut Vec<Insn>, dst: Reg, off: i32) {
    out.push(Insn::Alu {
        op: AluOp::Mov,
        dst,
        src: Src::Reg(Reg(10)),
    });
    out.push(Insn::Alu {
        op: AluOp::Add,
        dst,
        src: Src::Imm(off as i64),
    });
}

/// One fragment of an untrusted program: mostly well-shaped helper calls
/// over a few small keys (so lookups hit, and deletes and re-inserts
/// churn slots under live pointers), saved-pointer accesses, wild
/// pointers, and raw random instructions.
fn arb_fragment(rng: &mut StdRng, out: &mut Vec<Insn>) {
    let saved = Reg(rng.random_range(6u8..9));
    match rng.random_range(0..12) {
        0..=2 => {
            // A map helper over a small key.
            store_key(rng, out);
            out.push(Insn::LoadMap {
                dst: Reg(1),
                map: arb_map(rng),
            });
            fp_ptr(out, Reg(2), KEY_OFF);
            let helper = [
                Helper::MapLookup,
                Helper::MapLookup,
                Helper::MapUpdate,
                Helper::MapDelete,
            ][rng.random_range(0..4usize)];
            if helper == Helper::MapUpdate {
                arb_value_ptr(rng, out);
            }
            out.push(Insn::Call { helper });
            if helper == Helper::MapLookup {
                out.push(Insn::Alu {
                    op: AluOp::Mov,
                    dst: saved,
                    src: Src::Reg(Reg(0)),
                });
            }
        }
        3 => {
            // Access through a saved (possibly stale) value pointer.
            let size = SIZES[rng.random_range(0..SIZES.len())];
            let off = rng.random_range(-4i32..24);
            out.push(if rng.random_bool(0.5) {
                Insn::Load {
                    size,
                    dst: Reg(0),
                    base: saved,
                    off,
                }
            } else {
                Insn::Store {
                    size,
                    base: saved,
                    off,
                    src: Src::Imm(rng.random_range(-600i64..600)),
                }
            });
        }
        4 => {
            // A helper with wild pointer / handle / length arguments.
            for r in 1..=3 {
                out.push(mov(Reg(r), arb_ptr(rng)));
            }
            if rng.random_bool(0.5) {
                out.push(Insn::LoadMap {
                    dst: Reg(1),
                    map: arb_map(rng),
                });
            }
            if rng.random_bool(0.5) {
                out.push(mov(Reg(3), rng.random_range(0i64..700)));
            }
            if rng.random_bool(0.3) {
                out.push(Insn::Alu {
                    op: AluOp::Mov,
                    dst: Reg(2 + rng.random_range(0u8..2)),
                    src: Src::Reg(saved),
                });
            }
            out.push(Insn::Call {
                helper: HELPERS[rng.random_range(0..HELPERS.len())],
            });
        }
        5 => {
            // Wild map-value pointer, then an access through it.
            out.push(mov(saved, arb_ptr(rng)));
            out.push(Insn::Load {
                size: SIZES[rng.random_range(0..SIZES.len())],
                dst: Reg(0),
                base: saved,
                off: rng.random_range(-8i32..32),
            });
        }
        6..=9 => {
            // Look up, maybe delete and maybe re-insert the same key,
            // then use the pointer taken before.
            let map = MapId([0, 0, 1, 4][rng.random_range(0..4usize)]);
            store_key(rng, out);
            out.push(Insn::LoadMap { dst: Reg(1), map });
            fp_ptr(out, Reg(2), KEY_OFF);
            out.push(Insn::Call {
                helper: Helper::MapLookup,
            });
            out.push(Insn::Alu {
                op: AluOp::Mov,
                dst: saved,
                src: Src::Reg(Reg(0)),
            });
            let mut helpers = vec![Helper::MapDelete];
            if rng.random_bool(0.4) {
                helpers.push(Helper::MapUpdate);
            }
            for helper in helpers {
                out.push(Insn::LoadMap { dst: Reg(1), map });
                fp_ptr(out, Reg(2), KEY_OFF);
                if helper == Helper::MapUpdate {
                    arb_value_ptr(rng, out);
                }
                out.push(Insn::Call { helper });
            }
            out.push(Insn::Load {
                size: Size::B8,
                dst: Reg(0),
                base: saved,
                off: 0,
            });
        }
        _ => out.push(arb_insn(rng)),
    }
}

/// A small key (0..5) in all five words of the key window, so the
/// 40-byte map sees it too.
fn store_key(rng: &mut StdRng, out: &mut Vec<Insn>) {
    let k = rng.random_range(0i64..5);
    for w in 0..5 {
        out.push(Insn::Store {
            size: Size::B8,
            base: Reg(10),
            off: KEY_OFF + 8 * w,
            src: Src::Imm(if w == 0 { k } else { 0 }),
        });
    }
}

/// `R3` for `map_update_elem`: stack scratch, the context (the only
/// source long enough for the 600-byte map), or anything at all.
fn arb_value_ptr(rng: &mut StdRng, out: &mut Vec<Insn>) {
    match rng.random_range(0..10) {
        0..=5 => fp_ptr(out, Reg(3), VAL_OFF),
        6..=8 => out.push(mov(Reg(3), CTX_BASE as i64)),
        _ => out.push(mov(Reg(3), arb_ptr(rng))),
    }
}

/// The VM never panics, whatever it is handed: ≥20k unverified programs
/// with map helpers, wild value and handle pointers, stale dereference
/// indices, and keys and values larger than any inline buffer. Each run
/// returns `Ok` or a `VmError`. Maps persist across 64 programs at a
/// time, so slots are freed, reused and cleared under old pointers.
#[test]
fn unverified_programs_never_panic_the_vm() {
    let mut rng = StdRng::seed_from_u64(0x0BAD_B0F5);
    let (mut ok, mut stale, mut bad_args) = (0usize, 0usize, 0usize);
    let mut lookups = 0u64;
    for _ in 0..320 {
        let mut m = robust_maps();
        for case in 0..64 {
            let mut prog = Vec::new();
            for _ in 0..rng.random_range(1usize..16) {
                arb_fragment(&mut rng, &mut prog);
            }
            prog.push(Insn::Exit);
            let ctx: Vec<u8> = (0..rng.random_range(0usize..720))
                .map(|_| rng.random_range(0u8..=255))
                .collect();
            let mut world = NullWorld::default();
            match Vm::run(&prog, &ctx, &mut m, &mut world) {
                Ok(_) => ok += 1,
                Err(VmError::StaleMapValue { .. }) => stale += 1,
                Err(VmError::BadHelperArgs { .. }) => bad_args += 1,
                Err(_) => {}
            }
            if case % 16 == 15 {
                m.clear(MapId(rng.random_range(0u32..5)));
            }
            m.ring_drain(MapId(3), 8);
        }
        lookups += m.op_stats().lookups;
    }
    // Not vacuous: runs complete, pointers go stale, bad handles are
    // caught, and map values are reached.
    assert!(ok > 1000, "only {ok} runs completed");
    assert!(stale > 300, "only {stale} stale-pointer faults");
    assert!(bad_args > 1000, "only {bad_args} bad-handle faults");
    assert!(lookups > 10_000, "only {lookups} lookups");
}
