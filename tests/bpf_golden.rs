//! Golden lock for the BPF layer: exact, cross-commit pins.
//!
//! The collector triple (BEGIN / END / FEATURES) for each of the eight
//! probe layouts runs one seeded marker script — three threads, nested
//! OUs, occasional out-of-order markers followed by the Collector's
//! reset — through the real `Loader`. Each layout is reduced to three
//! numbers:
//!
//! * `data`: CRC-32 of every ring record (drained, evicted and still
//!   queued), the ring statistics, and `dump()` of every map at the end;
//! * `stats`: CRC-32 of the summed `ExecStats` and the registry's
//!   `MapOpStats`;
//! * `insns`: total executed instructions (also inside `stats`, kept
//!   separately so a mismatch reads at a glance).
//!
//! The constants were captured before the VM's memory model was reworked
//! to slot handles, and `data` was the same then for the bounded-loop
//! and unrolled codegen forms with and without a load-time optimizer.
//! Any change to executed instructions, map-op counts, sample bytes or
//! final map state shows up here.
//!
//! On a mismatch the test prints the full table in source form.

use tscout_suite::archive::crc32;
use tscout_suite::bpf::maps::MapDef;
use tscout_suite::bpf::vm::HelperWorld;
use tscout_suite::bpf::{ExecStats, Loader, MapId};
use tscout_suite::rng::{RngExt, SeedableRng, StdRng};
use tscout_suite::tscout::codegen::{
    encode_ctx, gen_begin, gen_end, gen_features, ProbeLayout, CTX_BYTES,
};

/// Deterministic kernel facilities: every reading moves with a private
/// clock, so deltas are non-trivial and differ per counter.
struct ScriptWorld {
    clock: u64,
    tid: u64,
}

impl HelperWorld for ScriptWorld {
    fn ktime_ns(&mut self) -> u64 {
        self.clock += 37;
        self.clock
    }
    fn current_pid_tgid(&mut self) -> u64 {
        self.tid
    }
    fn perf_event_read(&mut self, idx: u64) -> Option<[u64; 3]> {
        self.clock += 3;
        let c = self.clock;
        Some([c * (idx + 1) + idx, c, c - c / (idx + 4)])
    }
    fn read_task_io(&mut self) -> [u64; 4] {
        self.clock += 5;
        let c = self.clock;
        [c * 4, c / 2, c / 100, c / 300]
    }
    fn read_tcp_sock(&mut self) -> [u64; 4] {
        self.clock += 7;
        let c = self.clock;
        [c * 3, c / 3, c / 50, c / 70]
    }
}

#[derive(Clone, Copy)]
enum Marker {
    Begin,
    End,
    Features,
}

/// Per-thread script state: open OU depth and whether a FEATURES marker
/// is due.
#[derive(Default, Clone, Copy)]
struct ThreadState {
    depth: u32,
    pending_features: bool,
}

const TIDS: [u64; 3] = [7, 300, 0x1_0001];
const STEPS: usize = 600;
const RING_CAPACITY: usize = 8;

struct Outcome {
    data: u32,
    stats: u32,
    insns: u64,
    samples: usize,
    resets: usize,
    dropped: u64,
}

fn layout(bits: usize) -> ProbeLayout {
    ProbeLayout {
        cpu: bits & 1 != 0,
        disk: bits & 2 != 0,
        net: bits & 4 != 0,
    }
}

fn run_layout(p: &ProbeLayout) -> Outcome {
    let mut loader = Loader::new();
    let depth = loader.maps.create(MapDef::hash("depth", 8, 8, 256));
    let begin_map = loader
        .maps
        .create(MapDef::hash("begin", 8, p.snap_words() * 8, 1024));
    let done = loader
        .maps
        .create(MapDef::hash("done", 8, p.done_words() * 8, 256));
    let ring = loader
        .maps
        .create(MapDef::perf_event_array("ring", RING_CAPACITY));
    let progs = [
        loader
            .load("begin", gen_begin(p, depth, begin_map), CTX_BYTES)
            .expect("begin loads"),
        loader
            .load("end", gen_end(p, depth, begin_map, done), CTX_BYTES)
            .expect("end loads"),
        loader
            .load("features", gen_features(p, done, ring), CTX_BYTES)
            .expect("features loads"),
    ];

    let mut rng = StdRng::seed_from_u64(0x0601_DE11);
    let mut world = ScriptWorld {
        clock: 1000,
        tid: 0,
    };
    let mut threads = [ThreadState::default(); TIDS.len()];
    let mut exec = ExecStats::default();
    let mut data = Vec::new();
    let mut samples = 0usize;
    let mut resets = 0usize;

    for step in 0..STEPS {
        let t = rng.random_range(0..TIDS.len());
        let st = threads[t];
        // Mostly a well-formed nested script; now and then a marker out
        // of order, which the programs report with R0 = 1.
        let marker = if rng.random_bool(0.06) {
            [Marker::Begin, Marker::End, Marker::Features][rng.random_range(0..3usize)]
        } else if st.pending_features {
            Marker::Features
        } else if st.depth == 0 || (st.depth < 4 && rng.random_bool(0.45)) {
            Marker::Begin
        } else {
            Marker::End
        };
        let payload: Vec<u64> = (0..rng.random_range(0..6usize))
            .map(|_| rng.random::<u64>())
            .collect();
        let ou = rng.random_range(1u64..40);
        let ctx = encode_ctx(ou, TIDS[t], 1, step as u64 & 3, &payload);
        world.tid = TIDS[t];
        world.clock += rng.random_range(10u64..5000);
        let prog = match marker {
            Marker::Begin => progs[0],
            Marker::End => progs[1],
            Marker::Features => progs[2],
        };
        let (r0, s) = loader.run(prog, &ctx, &mut world).expect("program runs");
        exec.insns += s.insns;
        exec.helper_calls += s.helper_calls;
        exec.ring_publishes += s.ring_publishes;
        let st = &mut threads[t];
        if r0 == 0 {
            match marker {
                Marker::Begin => st.depth += 1,
                Marker::End => {
                    st.depth = st.depth.saturating_sub(1);
                    st.pending_features = true;
                }
                Marker::Features => st.pending_features = false,
            }
        } else {
            // The Collector's §5.1 reset: discard the thread's state.
            resets += 1;
            *st = ThreadState::default();
            let tid = TIDS[t].to_le_bytes();
            let _ = loader.maps.delete(done, &tid);
            let _ = loader.maps.delete(depth, &tid);
            for d in 0u64..8 {
                let bkey = ((TIDS[t] << 8) | d).to_le_bytes();
                let _ = loader.maps.delete(begin_map, &bkey);
            }
        }
        if step % 5 == 4 {
            for rec in loader.maps.ring_drain(ring, 1) {
                samples += 1;
                data.extend_from_slice(&rec);
            }
        }
    }

    for rec in loader.maps.ring_take_evicted(ring) {
        data.extend_from_slice(b"evicted");
        data.extend_from_slice(&rec);
    }
    let rs = loader.maps.ring_stats(ring);
    for v in [
        rs.produced,
        rs.dropped,
        rs.bytes,
        rs.hwm as u64,
        rs.len as u64,
    ] {
        data.extend_from_slice(&v.to_le_bytes());
    }
    for id in 0..loader.maps.len() as u32 {
        for (k, v) in loader.maps.dump(MapId(id)) {
            data.extend_from_slice(&(k.len() as u64).to_le_bytes());
            data.extend_from_slice(&k);
            data.extend_from_slice(&(v.len() as u64).to_le_bytes());
            data.extend_from_slice(&v);
        }
    }

    let ops = loader.maps.op_stats();
    let mut stats = Vec::new();
    for v in [
        exec.insns,
        exec.helper_calls,
        exec.ring_publishes,
        ops.lookups,
        ops.updates,
        ops.deletes,
        ops.pushes,
        ops.pops,
        ops.ring_pushes,
        ops.ring_drained,
    ] {
        stats.extend_from_slice(&v.to_le_bytes());
    }
    Outcome {
        data: crc32(&data),
        stats: crc32(&stats),
        insns: exec.insns,
        samples,
        resets,
        dropped: rs.dropped,
    }
}

/// `(layout bits: cpu=1 disk=2 net=4, data, stats, insns)`.
#[rustfmt::skip]
const GOLDEN: [(usize, u32, u32, u64); 8] = [
    (0, 0x0f1774c3, 0xb24da272, 34572),
    (1, 0x12c97cdf, 0x7547c48d, 64420),
    (2, 0xf8816c55, 0xc22755cb, 40329),
    (3, 0xe2ae441f, 0x9fff771b, 70177),
    (4, 0xb2d29996, 0xc22755cb, 40329),
    (5, 0xded04ad5, 0x9fff771b, 70177),
    (6, 0xa5513195, 0x24bfd74d, 46086),
    (7, 0x2a368b48, 0xd1088998, 75934),
];

#[test]
fn collector_triples_match_golden_digests() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for &(bits, data, stats, insns) in &GOLDEN {
        let o = run_layout(&layout(bits));
        assert!(o.samples > 0, "layout {bits}: script delivered no samples");
        assert!(o.resets > 0, "layout {bits}: script never reset a thread");
        assert!(
            o.dropped > 0,
            "layout {bits}: ring never overwrote a record"
        );
        table.push_str(&format!(
            "    ({bits}, {:#010x}, {:#010x}, {}),\n",
            o.data, o.stats, o.insns
        ));
        if (o.data, o.stats, o.insns) != (data, stats, insns) {
            mismatches.push(bits);
        }
    }
    assert!(
        mismatches.is_empty(),
        "BPF golden digests changed for layouts {mismatches:?}; actual table:\n{table}"
    );
}
