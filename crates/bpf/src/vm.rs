//! The interpreter ("JIT" stage of the loader pipeline).
//!
//! The kernel JIT-compiles verified bytecode to machine code; we interpret
//! it. The interpreter *trusts* the verifier for performance in real BPF,
//! but ours stays defensive: every memory access is still checked, so a
//! verifier bug surfaces as a [`VmError`] instead of undefined behavior —
//! a property the cross-checking property tests rely on.
//!
//! ## Memory model
//!
//! Pointers are plain `u64`s in disjoint address windows, so pointer
//! arithmetic works with ordinary ALU instructions:
//!
//! * stack:      `0x1000_0000_0000 ..+ 512` (R10 starts at the top),
//! * context:    `0x2000_0000_0000 ..+ ctx_len` (read-only),
//! * map values: `0x3000_0000_0000 + (entry << 32) ..+ value_size`, where
//!   `entry` indexes a per-execution dereference table created by
//!   `map_lookup_elem` — giving BPF's in-place value-update semantics,
//! * map handles: `0x4000_0000_0000 | map_id` (opaque; only helpers use
//!   them).
//!
//! A dereference-table entry holds the key and a slot handle: a
//! [`ValueRef`] of `(map, slot, generation)` into the map's value slab
//! (see [`crate::maps`]). `map_lookup_elem` resolves the key once; every
//! later access through the pointer is an index, a generation check and
//! a bounds check. A delete or clear moves the slot's generation on; the
//! next access then resolves the key again, so a pointer always reaches
//! the live value for its `(map, key)` — even after a delete and
//! re-insert in the same run — and faults [`VmError::StaleMapValue`]
//! only while the key is absent. Entries are numbered in lookup order,
//! and the first few live inline, so running a program allocates
//! nothing but the records it publishes.
//!
//! Map-op accounting counts one lookup per `map_lookup_elem` call plus
//! one per access through a map-value pointer (load, store, or helper
//! argument), whether the access hits or faults stale.

use crate::insn::{AluOp, Helper, Insn, Src};
use crate::maps::{MapError, MapId, MapKey, MapRegistry, SmallBytes, ValueRef};

pub const STACK_BASE: u64 = 0x1000_0000_0000;
pub const STACK_SIZE: usize = 512;
pub const CTX_BASE: u64 = 0x2000_0000_0000;
pub const MAPV_BASE: u64 = 0x3000_0000_0000;
pub const HANDLE_BASE: u64 = 0x4000_0000_0000;
/// Interpreter fuel: far above the verifier's path lengths, so exhausting
/// it indicates a bug rather than a slow program.
pub const FUEL: u64 = 4_000_000;

/// Runtime faults. A verified program should never produce one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    BadAddress { pc: usize, addr: u64 },
    ReadOnly { pc: usize, addr: u64 },
    StaleMapValue { pc: usize },
    BadMapHandle { pc: usize },
    OutOfFuel,
    PcOutOfBounds { pc: usize },
    BadHelperArgs { pc: usize, helper: Helper },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::BadAddress { pc, addr } => write!(f, "bad address {addr:#x} at pc {pc}"),
            VmError::ReadOnly { pc, addr } => write!(f, "write to read-only {addr:#x} at pc {pc}"),
            VmError::StaleMapValue { pc } => write!(f, "stale map value pointer at pc {pc}"),
            VmError::BadMapHandle { pc } => write!(f, "bad map handle at pc {pc}"),
            VmError::OutOfFuel => write!(f, "out of fuel"),
            VmError::PcOutOfBounds { pc } => write!(f, "pc {pc} out of bounds"),
            VmError::BadHelperArgs { pc, helper } => {
                write!(f, "bad args for helper {} at pc {pc}", helper.name())
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Counters the caller uses to charge kernel time for the program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub insns: u64,
    pub helper_calls: u64,
    /// Records published via `perf_event_output` during this run.
    pub ring_publishes: u64,
}

/// The kernel facilities helpers read. Implemented by the `tscout` runtime
/// over the simulated kernel; kept as a trait so this crate stays
/// dependency-free and unit-testable with mock worlds.
pub trait HelperWorld {
    /// Current task-local monotonic time in ns.
    fn ktime_ns(&mut self) -> u64;
    /// `(pid << 32) | tid` of the task that hit the tracepoint.
    fn current_pid_tgid(&mut self) -> u64;
    /// Read PMU counter `idx`: `[value, time_enabled, time_running]`.
    fn perf_event_read(&mut self, idx: u64) -> Option<[u64; 3]>;
    /// Task I/O accounting: `[read_bytes, write_bytes, read_syscalls, write_syscalls]`.
    fn read_task_io(&mut self) -> [u64; 4];
    /// Socket stats: `[bytes_sent, bytes_received, segs_out, segs_in]`.
    fn read_tcp_sock(&mut self) -> [u64; 4];
}

/// A no-op world for tests.
#[derive(Debug, Default)]
pub struct NullWorld {
    pub time_ns: u64,
    pub pid_tgid: u64,
}

impl HelperWorld for NullWorld {
    fn ktime_ns(&mut self) -> u64 {
        self.time_ns
    }
    fn current_pid_tgid(&mut self) -> u64 {
        self.pid_tgid
    }
    fn perf_event_read(&mut self, idx: u64) -> Option<[u64; 3]> {
        Some([idx.wrapping_mul(100), 1000, 1000])
    }
    fn read_task_io(&mut self) -> [u64; 4] {
        [0; 4]
    }
    fn read_tcp_sock(&mut self) -> [u64; 4] {
        [0; 4]
    }
}

/// The interpreter.
#[derive(Debug)]
pub struct Vm;

struct Exec<'a> {
    stack: [u8; STACK_SIZE],
    ctx: &'a [u8],
    maps: &'a mut MapRegistry,
    deref: DerefTable,
}

/// A live map-value pointer: the key it was looked up by, and where its
/// value was found.
#[derive(Debug, Default)]
struct Deref {
    key: MapKey,
    at: ValueRef,
}

/// Entries beyond this many spill to the heap (collector programs hold
/// at most two pointers per run).
const DEREF_INLINE: usize = 4;

#[derive(Debug, Default)]
struct DerefTable {
    inline: [Deref; DEREF_INLINE],
    len: usize,
    spill: Vec<Deref>,
}

impl DerefTable {
    fn push(&mut self, d: Deref) -> usize {
        let entry = self.len;
        match self.inline.get_mut(entry) {
            Some(slot) => *slot = d,
            None => self.spill.push(d),
        }
        self.len += 1;
        entry
    }

    fn get_mut(&mut self, entry: usize) -> Option<&mut Deref> {
        if entry >= self.len {
            None
        } else if entry < DEREF_INLINE {
            Some(&mut self.inline[entry])
        } else {
            self.spill.get_mut(entry - DEREF_INLINE)
        }
    }
}

/// Helper arguments copied out of VM memory before a map is mutated:
/// inline up to the stack size, on the heap beyond.
type ArgBytes = SmallBytes<STACK_SIZE>;

impl<'a> Exec<'a> {
    /// Run `f` over `len` bytes of readable memory at `addr`.
    fn read<R>(
        &mut self,
        pc: usize,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, VmError> {
        if in_window(addr, STACK_BASE, STACK_SIZE as u64, len) {
            let off = (addr - STACK_BASE) as usize;
            return Ok(f(&self.stack[off..off + len]));
        }
        if in_window(addr, CTX_BASE, self.ctx.len() as u64, len) {
            let off = (addr - CTX_BASE) as usize;
            return Ok(f(&self.ctx[off..off + len]));
        }
        if let Some((entry, off)) = mapv_decode(addr) {
            let d = self
                .deref
                .get_mut(entry)
                .ok_or(VmError::BadAddress { pc, addr })?;
            let val = self
                .maps
                .deref(&mut d.at, &d.key)
                .ok_or(VmError::StaleMapValue { pc })?;
            let bytes = val
                .get(off..)
                .and_then(|v| v.get(..len))
                .ok_or(VmError::BadAddress { pc, addr })?;
            return Ok(f(bytes));
        }
        Err(VmError::BadAddress { pc, addr })
    }

    /// Run `f` over `len` bytes of writable memory at `addr`.
    fn write<R>(
        &mut self,
        pc: usize,
        addr: u64,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, VmError> {
        if in_window(addr, STACK_BASE, STACK_SIZE as u64, len) {
            let off = (addr - STACK_BASE) as usize;
            return Ok(f(&mut self.stack[off..off + len]));
        }
        if in_window(addr, CTX_BASE, self.ctx.len() as u64, len) {
            return Err(VmError::ReadOnly { pc, addr });
        }
        if let Some((entry, off)) = mapv_decode(addr) {
            let d = self
                .deref
                .get_mut(entry)
                .ok_or(VmError::BadAddress { pc, addr })?;
            let val = self
                .maps
                .deref_mut(&mut d.at, &d.key)
                .ok_or(VmError::StaleMapValue { pc })?;
            let bytes = val
                .get_mut(off..)
                .and_then(|v| v.get_mut(..len))
                .ok_or(VmError::BadAddress { pc, addr })?;
            return Ok(f(bytes));
        }
        Err(VmError::BadAddress { pc, addr })
    }

    fn write_bytes(&mut self, pc: usize, addr: u64, data: &[u8]) -> Result<(), VmError> {
        self.write(pc, addr, data.len(), |dst| dst.copy_from_slice(data))
    }
}

/// Zero-extend a 1-, 2-, 4- or 8-byte little-endian value. The sized
/// arms compile to single moves instead of a variable-length copy.
fn load_le(src: &[u8]) -> u64 {
    match *src {
        [a] => a as u64,
        [a, b] => u16::from_le_bytes([a, b]) as u64,
        [a, b, c, d] => u32::from_le_bytes([a, b, c, d]) as u64,
        [a, b, c, d, e, f, g, h] => u64::from_le_bytes([a, b, c, d, e, f, g, h]),
        _ => 0,
    }
}

/// Store the low `dst.len()` (1, 2, 4 or 8) bytes of `v`, little-endian.
fn store_le(dst: &mut [u8], v: u64) {
    let bytes = v.to_le_bytes();
    match dst.len() {
        1 => dst[0] = bytes[0],
        2 => dst.copy_from_slice(&bytes[..2]),
        4 => dst.copy_from_slice(&bytes[..4]),
        8 => dst.copy_from_slice(&bytes),
        _ => {}
    }
}

fn in_window(addr: u64, base: u64, window: u64, len: usize) -> bool {
    addr >= base && addr.saturating_add(len as u64) <= base + window
}

fn mapv_decode(addr: u64) -> Option<(usize, usize)> {
    if (MAPV_BASE..HANDLE_BASE).contains(&addr) {
        let rel = addr - MAPV_BASE;
        Some(((rel >> 32) as usize, (rel & 0xFFFF_FFFF) as usize))
    } else {
        None
    }
}

fn handle_decode(v: u64) -> Option<MapId> {
    if (HANDLE_BASE..HANDLE_BASE + (1 << 32)).contains(&v) {
        Some(MapId((v - HANDLE_BASE) as u32))
    } else {
        None
    }
}

impl Vm {
    /// Execute a (verified) program. Returns `R0` and execution stats.
    pub fn run(
        prog: &[Insn],
        ctx: &[u8],
        maps: &mut MapRegistry,
        world: &mut dyn HelperWorld,
    ) -> Result<(u64, ExecStats), VmError> {
        let mut regs = [0u64; 11];
        regs[1] = CTX_BASE;
        regs[10] = STACK_BASE + STACK_SIZE as u64;
        let mut exec = Exec {
            stack: [0; STACK_SIZE],
            ctx,
            maps,
            deref: DerefTable::default(),
        };
        let mut stats = ExecStats::default();
        let mut pc = 0usize;

        loop {
            if stats.insns == FUEL {
                return Err(VmError::OutOfFuel);
            }
            stats.insns += 1;
            let insn = *prog.get(pc).ok_or(VmError::PcOutOfBounds { pc })?;
            match insn {
                Insn::Alu { op, dst, src } => {
                    let s = match src {
                        Src::Imm(i) => i as u64,
                        Src::Reg(r) => regs[r.index()],
                    };
                    let d = regs[dst.index()];
                    regs[dst.index()] = alu(op, d, s);
                    pc += 1;
                }
                Insn::Load {
                    size,
                    dst,
                    base,
                    off,
                } => {
                    let addr = regs[base.index()].wrapping_add(off as i64 as u64);
                    regs[dst.index()] = exec.read(pc, addr, size.bytes(), load_le)?;
                    pc += 1;
                }
                Insn::Store {
                    size,
                    base,
                    off,
                    src,
                } => {
                    let addr = regs[base.index()].wrapping_add(off as i64 as u64);
                    let v = match src {
                        Src::Imm(i) => i as u64,
                        Src::Reg(r) => regs[r.index()],
                    };
                    exec.write(pc, addr, size.bytes(), |dst| store_le(dst, v))?;
                    pc += 1;
                }
                Insn::Jump { cond, off } => {
                    let taken = match cond {
                        None => true,
                        Some((c, dst, src)) => {
                            let s = match src {
                                Src::Imm(i) => i as u64,
                                Src::Reg(r) => regs[r.index()],
                            };
                            c.eval(regs[dst.index()], s)
                        }
                    };
                    pc = if taken {
                        (pc as i64 + 1 + off as i64) as usize
                    } else {
                        pc + 1
                    };
                }
                Insn::Call { helper } => {
                    stats.helper_calls += 1;
                    Self::call(helper, &mut regs, &mut exec, world, &mut stats, pc)?;
                    pc += 1;
                }
                Insn::LoadMap { dst, map } => {
                    regs[dst.index()] = HANDLE_BASE | map.0 as u64;
                    pc += 1;
                }
                Insn::Exit => return Ok((regs[0], stats)),
            }
        }
    }

    fn call(
        helper: Helper,
        regs: &mut [u64; 11],
        exec: &mut Exec<'_>,
        world: &mut dyn HelperWorld,
        stats: &mut ExecStats,
        pc: usize,
    ) -> Result<(), VmError> {
        let bad = || VmError::BadHelperArgs { pc, helper };
        let r0 = match helper {
            Helper::KtimeGetNs => world.ktime_ns(),
            Helper::GetCurrentPidTgid => world.current_pid_tgid(),
            Helper::MapLookup => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                let ks = exec.maps.def(map).ok_or_else(bad)?.key_size;
                let key = exec.read(pc, regs[2], ks, MapKey::new)?;
                match exec.maps.lookup_ref(map, &key) {
                    Some(at) => {
                        let entry = exec.deref.push(Deref { key, at });
                        MAPV_BASE + ((entry as u64) << 32)
                    }
                    None => 0,
                }
            }
            Helper::MapUpdate => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                let (ks, vs) = {
                    let d = exec.maps.def(map).ok_or_else(bad)?;
                    (d.key_size, d.value_size)
                };
                let key = exec.read(pc, regs[2], ks, MapKey::new)?;
                let val = exec.read(pc, regs[3], vs, ArgBytes::new)?;
                errno(exec.maps.update(map, &key, &val))
            }
            Helper::MapDelete => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                let ks = exec.maps.def(map).ok_or_else(bad)?.key_size;
                let key = exec.read(pc, regs[2], ks, MapKey::new)?;
                errno(exec.maps.delete(map, &key))
            }
            Helper::MapPush => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                let vs = exec.maps.def(map).ok_or_else(bad)?.value_size;
                let val = exec.read(pc, regs[2], vs, ArgBytes::new)?;
                errno(exec.maps.push(map, &val))
            }
            Helper::MapPop => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                exec.maps.def(map).ok_or_else(bad)?;
                match exec.maps.pop(map) {
                    Ok(val) => {
                        exec.write_bytes(pc, regs[2], &val)?;
                        0
                    }
                    Err(e) => e.errno() as u64,
                }
            }
            Helper::PerfEventReadBuf => match world.perf_event_read(regs[1]) {
                Some(triple) => {
                    let mut buf = [0u8; 24];
                    for (i, v) in triple.iter().enumerate() {
                        buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
                    }
                    exec.write_bytes(pc, regs[2], &buf)?;
                    0
                }
                None => (-2i64) as u64,
            },
            Helper::ReadTaskIo | Helper::ReadTcpSock => {
                let quad = if helper == Helper::ReadTaskIo {
                    world.read_task_io()
                } else {
                    world.read_tcp_sock()
                };
                let mut buf = [0u8; 32];
                for (i, v) in quad.iter().enumerate() {
                    buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
                }
                exec.write_bytes(pc, regs[1], &buf)?;
                0
            }
            Helper::PerfEventOutput => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                exec.maps.def(map).ok_or_else(bad)?;
                // The one allocation of a run: the record the ring keeps.
                let data = exec.read(pc, regs[2], regs[3] as usize, <[u8]>::to_vec)?;
                stats.ring_publishes += 1;
                errno(exec.maps.ring_push(map, data))
            }
        };
        // Clobber caller-saved registers exactly as the ABI specifies.
        for r in regs.iter_mut().take(6).skip(1) {
            *r = 0xDEAD_BEEF_DEAD_BEEF;
        }
        regs[0] = r0;
        Ok(())
    }
}

fn errno(r: Result<(), MapError>) -> u64 {
    match r {
        Ok(()) => 0,
        Err(e) => e.errno() as u64,
    }
}

/// Concrete ALU evaluation — shared with the load-time optimizer's
/// constant folder so folded results match execution bit-for-bit.
pub(crate) fn alu(op: AluOp, d: u64, s: u64) -> u64 {
    match op {
        AluOp::Add => d.wrapping_add(s),
        AluOp::Sub => d.wrapping_sub(s),
        AluOp::Mul => d.wrapping_mul(s),
        // eBPF semantics: division by zero yields 0, modulo by zero keeps dst.
        AluOp::Div => d.checked_div(s).unwrap_or(0),
        AluOp::Mod => d.checked_rem(s).unwrap_or(d),
        AluOp::And => d & s,
        AluOp::Or => d | s,
        AluOp::Xor => d ^ s,
        AluOp::Lsh => d << (s & 63),
        AluOp::Rsh => d >> (s & 63),
        AluOp::Arsh => ((d as i64) >> (s & 63)) as u64,
        AluOp::Mov => s,
        AluOp::Neg => (d as i64).wrapping_neg() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::insn::{Cond, Size, R0, R1, R10, R2, R3, R4, R6, R7, R9};
    use crate::maps::MapDef;

    fn zext(bytes: &[u8]) -> u64 {
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(buf)
    }

    fn run(prog: Vec<Insn>, ctx: &[u8], maps: &mut MapRegistry) -> u64 {
        let mut world = NullWorld::default();
        let (r0, _) = Vm::run(&prog, ctx, maps, &mut world).unwrap();
        r0
    }

    #[test]
    fn arithmetic_works() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 10);
        b.alu_imm(AluOp::Mul, R0, 7);
        b.alu_imm(AluOp::Add, R0, 2);
        b.alu_imm(AluOp::Div, R0, 8); // 72 / 8 = 9
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 9);
    }

    #[test]
    fn division_by_zero_yields_zero_mod_keeps_dst() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 42);
        b.mov_imm(R6, 0);
        b.alu_reg(AluOp::Div, R0, R6);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 0);

        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 42);
        b.mov_imm(R6, 0);
        b.alu_reg(AluOp::Mod, R0, R6);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 42);
    }

    #[test]
    fn stack_store_load_round_trip() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R6, 0x1122334455667788);
        b.store_reg(Size::B8, R10, -8, R6);
        b.load(Size::B4, R0, R10, -8); // low 4 bytes, zero-extended
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 0x55667788);
    }

    #[test]
    fn ctx_reads_work_and_writes_fault() {
        let mut maps = MapRegistry::new();
        let ctx = 0xABCDu64.to_le_bytes();
        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R1, 0);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &ctx, &mut maps), 0xABCD);

        let prog = vec![
            Insn::Store {
                size: Size::B1,
                base: R1,
                off: 0,
                src: Src::Imm(1),
            },
            Insn::Exit,
        ];
        let mut world = NullWorld::default();
        let err = Vm::run(&prog, &ctx, &mut maps, &mut world).unwrap_err();
        assert!(matches!(err, VmError::ReadOnly { .. }));
    }

    #[test]
    fn conditional_jump_selects_branch() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        let else_ = b.label();
        let end = b.label();
        b.mov_imm(R6, 5);
        b.jump_if_imm(Cond::Gt, R6, 10, else_);
        b.mov_imm(R0, 111);
        b.jump(end);
        b.bind(else_);
        b.mov_imm(R0, 222);
        b.bind(end);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 111);
    }

    #[test]
    fn map_update_lookup_and_in_place_mutation() {
        let mut maps = MapRegistry::new();
        let h = maps.create(MapDef::hash("h", 8, 8, 8));
        let mut b = ProgramBuilder::new();
        // key=7 at fp-8, value=100 at fp-16
        b.store_imm(Size::B8, R10, -8, 7);
        b.store_imm(Size::B8, R10, -16, 100);
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.mov_reg(R3, R10);
        b.alu_imm(AluOp::Add, R3, -16);
        b.mov_imm(R4, 0);
        b.call(Helper::MapUpdate);
        // lookup and bump the value in place
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::MapLookup);
        let miss = b.label();
        b.jump_if_imm(Cond::Eq, R0, 0, miss);
        b.load(Size::B8, R6, R0, 0);
        b.alu_imm(AluOp::Add, R6, 1);
        b.store_reg(Size::B8, R0, 0, R6);
        b.bind(miss);
        b.mov_imm(R0, 0);
        b.exit();
        let prog = b.resolve().unwrap();
        crate::verifier::verify(&prog, &maps, 0).unwrap();
        run(prog, &[], &mut maps);
        let stored = maps.lookup(h, &7u64.to_le_bytes()).unwrap();
        assert_eq!(zext(stored), 101);
    }

    #[test]
    fn lookup_miss_returns_null() {
        let mut maps = MapRegistry::new();
        let h = maps.create(MapDef::hash("h", 8, 8, 8));
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 999);
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::MapLookup);
        b.exit(); // R0 = lookup result
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 0);
    }

    #[test]
    fn stack_map_push_pop_through_helpers() {
        let mut maps = MapRegistry::new();
        let s = maps.create(MapDef::stack("s", 8, 4));
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 41);
        b.load_map(R1, s);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::MapPush);
        b.load_map(R1, s);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.call(Helper::MapPop);
        b.load(Size::B8, R0, R10, -16);
        b.alu_imm(AluOp::Add, R0, 1);
        b.exit();
        let prog = b.resolve().unwrap();
        crate::verifier::verify(&prog, &maps, 0).unwrap();
        assert_eq!(run(prog, &[], &mut maps), 42);
    }

    #[test]
    fn perf_event_output_publishes_to_ring() {
        let mut maps = MapRegistry::new();
        let ring = maps.create(MapDef::perf_event_array("ring", 4));
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -16, 0xAAAA);
        b.store_imm(Size::B8, R10, -8, 0xBBBB);
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.mov_imm(R3, 16);
        b.call(Helper::PerfEventOutput);
        b.exit();
        let prog = b.resolve().unwrap();
        crate::verifier::verify(&prog, &maps, 0).unwrap();
        let mut world = NullWorld::default();
        let (_, stats) = Vm::run(&prog, &[], &mut maps, &mut world).unwrap();
        assert_eq!(stats.ring_publishes, 1);
        let records = maps.ring_drain(ring, 10);
        assert_eq!(records.len(), 1);
        assert_eq!(zext(&records[0][0..8]), 0xAAAA);
        assert_eq!(zext(&records[0][8..16]), 0xBBBB);
    }

    #[test]
    fn perf_event_read_buf_writes_triple() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R1, 3);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -24);
        b.call(Helper::PerfEventReadBuf);
        b.load(Size::B8, R0, R10, -24); // value = idx * 100 in NullWorld
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 300);
    }

    #[test]
    fn helper_ktime_and_pid() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs);
        b.mov_reg(R6, R0);
        b.call(Helper::GetCurrentPidTgid);
        b.alu_reg(AluOp::Add, R0, R6);
        b.exit();
        let prog = b.resolve().unwrap();
        let mut world = NullWorld {
            time_ns: 1000,
            pid_tgid: 24,
        };
        let (r0, stats) = Vm::run(&prog, &[], &mut maps, &mut world).unwrap();
        assert_eq!(r0, 1024);
        assert_eq!(stats.helper_calls, 2);
        assert_eq!(stats.insns, 5);
    }

    #[test]
    fn unverified_garbage_faults_safely() {
        // The VM must return an error, not panic, on wild pointers.
        let mut maps = MapRegistry::new();
        let prog = vec![
            Insn::Load {
                size: Size::B8,
                dst: R0,
                base: R1,
                off: 4096,
            },
            Insn::Exit,
        ];
        let mut world = NullWorld::default();
        let err = Vm::run(&prog, &[], &mut maps, &mut world).unwrap_err();
        assert!(matches!(err, VmError::BadAddress { .. }));
    }

    /// `R0 = lookup(map, key at fp+key_off)`.
    fn emit_lookup(b: &mut ProgramBuilder, map: MapId, key_off: i32) {
        b.load_map(R1, map);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, key_off as i64);
        b.call(Helper::MapLookup);
    }

    /// `update(map, key at fp+key_off, value at fp+val_off)` or, with
    /// `val_off` `None`, `delete(map, key at fp+key_off)`.
    fn emit_write(b: &mut ProgramBuilder, map: MapId, key_off: i32, val_off: Option<i32>) {
        b.load_map(R1, map);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, key_off as i64);
        match val_off {
            Some(off) => {
                b.mov_reg(R3, R10);
                b.alu_imm(AluOp::Add, R3, off as i64);
                b.mov_imm(R4, 0);
                b.call(Helper::MapUpdate);
            }
            None => {
                b.call(Helper::MapDelete);
            }
        }
    }

    /// A hash map holding key 7 → 100, and a program prefix that looks
    /// key 7 up into R6 (key at fp-8, scratch value at fp-16).
    fn pointer_setup() -> (MapRegistry, MapId, ProgramBuilder) {
        let mut maps = MapRegistry::new();
        let h = maps.create(MapDef::hash("h", 8, 8, 4));
        maps.update(h, &7u64.to_le_bytes(), &100u64.to_le_bytes())
            .unwrap();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 7);
        emit_lookup(&mut b, h, -8);
        b.mov_reg(R6, R0);
        (maps, h, b)
    }

    #[test]
    fn update_of_live_key_is_visible_through_earlier_pointer() {
        let (mut maps, h, mut b) = pointer_setup();
        b.store_imm(Size::B8, R10, -16, 555);
        emit_write(&mut b, h, -8, Some(-16));
        b.load(Size::B8, R0, R6, 0);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 555);
    }

    #[test]
    fn access_after_delete_is_stale() {
        let (mut maps, h, mut b) = pointer_setup();
        emit_write(&mut b, h, -8, None);
        b.load(Size::B8, R0, R6, 0);
        b.exit();
        let prog = b.resolve().unwrap();
        let err = Vm::run(&prog, &[], &mut maps, &mut NullWorld::default()).unwrap_err();
        assert!(matches!(err, VmError::StaleMapValue { .. }), "{err}");
        // Stores fault the same way.
        let (mut maps, h, mut b) = pointer_setup();
        emit_write(&mut b, h, -8, None);
        b.store_imm(Size::B8, R6, 0, 1);
        b.exit();
        let prog = b.resolve().unwrap();
        let err = Vm::run(&prog, &[], &mut maps, &mut NullWorld::default()).unwrap_err();
        assert!(matches!(err, VmError::StaleMapValue { .. }), "{err}");
    }

    #[test]
    fn reinserted_key_is_reached_through_old_pointer() {
        let (mut maps, h, mut b) = pointer_setup();
        emit_write(&mut b, h, -8, None);
        // Another key takes the freed slot first; key 7 lands elsewhere.
        b.store_imm(Size::B8, R10, -24, 8);
        b.store_imm(Size::B8, R10, -16, 888);
        emit_write(&mut b, h, -24, Some(-16));
        b.store_imm(Size::B8, R10, -16, 777);
        emit_write(&mut b, h, -8, Some(-16));
        b.load(Size::B8, R7, R6, 0);
        b.alu_imm(AluOp::Add, R7, 1);
        b.store_reg(Size::B8, R6, 0, R7);
        b.mov_reg(R0, R7);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 778);
        assert_eq!(zext(maps.lookup(h, &7u64.to_le_bytes()).unwrap()), 778);
        assert_eq!(zext(maps.lookup(h, &8u64.to_le_bytes()).unwrap()), 888);
    }

    #[test]
    fn lookups_count_helper_calls_and_pointer_accesses() {
        let (mut maps, h, mut b) = pointer_setup(); // lookup: 1
        b.load(Size::B8, R7, R6, 0); // 2
        b.store_reg(Size::B8, R6, 0, R7); // 3
        b.mov_reg(R2, R6); // key read through the pointer (4) misses (5)
        b.load_map(R1, h);
        b.call(Helper::MapLookup);
        emit_write(&mut b, h, -8, None);
        b.load(Size::B8, R7, R6, 0); // stale, still counted: 6
        b.exit();
        let prog = b.resolve().unwrap();
        let err = Vm::run(&prog, &[], &mut maps, &mut NullWorld::default()).unwrap_err();
        assert!(matches!(err, VmError::StaleMapValue { .. }));
        assert_eq!(maps.op_stats().lookups, 6);
    }

    #[test]
    fn pointer_table_spills_past_inline_entries() {
        // Ten live pointers at once, parked on the stack, then summed.
        let mut maps = MapRegistry::new();
        let h = maps.create(MapDef::hash("h", 8, 8, 16));
        for k in 0..10u64 {
            maps.update(h, &k.to_le_bytes(), &(k * 10).to_le_bytes())
                .unwrap();
        }
        let mut b = ProgramBuilder::new();
        for k in 0..10 {
            b.store_imm(Size::B8, R10, -8, k);
            emit_lookup(&mut b, h, -8);
            b.store_reg(Size::B8, R10, -16 - 8 * k as i32, R0);
        }
        b.mov_imm(R7, 0);
        for k in 0..10 {
            b.load(Size::B8, R6, R10, -16 - 8 * k);
            b.load(Size::B8, R6, R6, 0);
            b.alu_reg(AluOp::Add, R7, R6);
        }
        b.mov_reg(R0, R7);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 450);
    }

    #[test]
    fn keys_and_values_beyond_inline_buffers() {
        // 40-byte keys (inline keys hold 16) and 600-byte values (helper
        // copies hold 512 inline), sourced from the context.
        let mut maps = MapRegistry::new();
        let big = maps.create(MapDef::hash("big", 40, 600, 4));
        let ring = maps.create(MapDef::perf_event_array("ring", 4));
        let ctx: Vec<u8> = (0..700u32).map(|i| (i % 251) as u8).collect();
        let mut b = ProgramBuilder::new();
        b.mov_reg(R9, R1);
        // update(big, ctx[0..40], ctx[100..700])
        b.load_map(R1, big);
        b.mov_reg(R2, R9);
        b.mov_reg(R3, R9);
        b.alu_imm(AluOp::Add, R3, 100);
        b.mov_imm(R4, 0);
        b.call(Helper::MapUpdate);
        // p = lookup(big, ctx[0..40]); p[599] += 1; output p[0..600]
        b.load_map(R1, big);
        b.mov_reg(R2, R9);
        b.call(Helper::MapLookup);
        b.mov_reg(R6, R0);
        b.load(Size::B1, R7, R6, 599);
        b.alu_imm(AluOp::Add, R7, 1);
        b.store_reg(Size::B1, R6, 599, R7);
        b.load_map(R1, ring);
        b.mov_reg(R2, R6);
        b.mov_imm(R3, 600);
        b.call(Helper::PerfEventOutput);
        b.load(Size::B8, R0, R6, 0);
        b.exit();
        let r0 = run(b.resolve().unwrap(), &ctx, &mut maps);
        let mut expect = ctx[100..700].to_vec();
        expect[599] += 1;
        assert_eq!(r0, zext(&expect[..8]));
        assert_eq!(maps.lookup(big, &ctx[..40]).unwrap(), &expect[..]);
        assert_eq!(maps.ring_drain(ring, 4), vec![expect]);
    }

    #[test]
    fn huge_output_length_faults_without_allocating() {
        let mut maps = MapRegistry::new();
        let ring = maps.create(MapDef::perf_event_array("ring", 4));
        let mut b = ProgramBuilder::new();
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.mov_imm(R3, -1);
        b.call(Helper::PerfEventOutput);
        b.exit();
        let prog = b.resolve().unwrap();
        let err = Vm::run(&prog, &[], &mut maps, &mut NullWorld::default()).unwrap_err();
        assert!(matches!(err, VmError::BadAddress { .. }), "{err}");
    }

    #[test]
    fn signed_shift_behaves() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, -16);
        b.alu_imm(AluOp::Arsh, R0, 2);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps) as i64, -4);
    }
}
