//! BPF maps: the only mutable state a BPF program may touch.
//!
//! TScout's Collector uses maps for all intermediate storage (paper §3.2):
//! a hash map keyed by thread id holds the BEGIN snapshot and the END
//! deltas, a stack map handles recursive operators (§5.2), and a
//! perf-event array ships finished samples to the Processor. The perf
//! buffer is bounded and *overwrites* when full — the Processor may drop
//! data without correctness problems, which is how TScout avoids back
//! pressure on the DBMS (§3).
//!
//! ## Storage: index plus slab
//!
//! Hash and array values live in a slab: one flat byte buffer with a
//! fixed stride of `value_size`, plus a generation number per slot. A
//! hash map adds a `BTreeMap<key, slot>` index and a LIFO free list;
//! deleting a key bumps its slot's generation and frees the slot, and the
//! next insert of a new key takes the most recently freed slot (or grows
//! the slab). An array map is a slab of `entries` slots whose
//! generations never change.
//!
//! A [`ValueRef`] — `(map, slot, generation)` — names a value without
//! its key. [`MapRegistry::lookup_ref`] resolves a key once;
//! [`MapRegistry::deref`] and [`MapRegistry::deref_mut`] then reach the
//! value with an index, a generation check and a bounds check, and fall
//! back to resolving the key again only when the generation moved. This
//! is how the VM's map-value pointers stay cheap.
//!
//! Slot numbers are internal: iteration, [`MapRegistry::dump`] and
//! [`MapRegistry::entries`] go through the index, so hash maps still
//! report in key order and every simulation stays deterministic no
//! matter which slots were reused.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// How many overwritten ring records are retained for the collector's
/// loss-attribution telemetry. The collector drains this after every
/// program run, so the cap only matters for raw `MapRegistry` users who
/// never look; beyond it, evicted payloads are discarded (the count in
/// `dropped` stays exact either way).
pub const EVICTED_KEEP: usize = 4096;

/// Bytes held inline up to `N`, on the heap beyond. Compares and orders
/// exactly like the byte slice it holds, so a `BTreeMap` keyed by it
/// iterates in the same order as one keyed by `Vec<u8>`.
#[derive(Debug, Clone)]
pub enum SmallBytes<const N: usize> {
    Inline(usize, [u8; N]),
    Heap(Box<[u8]>),
}

/// A map key as stored in a hash map's index: every key the Collector
/// programs use fits inline.
pub type MapKey = SmallBytes<16>;

impl<const N: usize> SmallBytes<N> {
    pub fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= N {
            let mut buf = [0u8; N];
            buf[..bytes.len()].copy_from_slice(bytes);
            SmallBytes::Inline(bytes.len(), buf)
        } else {
            SmallBytes::Heap(bytes.into())
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        match self {
            SmallBytes::Inline(len, buf) => &buf[..*len],
            SmallBytes::Heap(b) => b,
        }
    }
}

impl<const N: usize> Default for SmallBytes<N> {
    fn default() -> Self {
        SmallBytes::Inline(0, [0; N])
    }
}

impl<const N: usize> std::ops::Deref for SmallBytes<N> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl<const N: usize> Borrow<[u8]> for SmallBytes<N> {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl<const N: usize> PartialEq for SmallBytes<N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> Eq for SmallBytes<N> {}

impl<const N: usize> PartialOrd for SmallBytes<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for SmallBytes<N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// Identifier of a created map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(pub u32);

/// Map flavors, mirroring the BPF map types TScout relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Keyed storage; at most `max_entries` live keys.
    Hash { max_entries: usize },
    /// Fixed-size array; keys are 4-byte little-endian indices.
    Array { entries: usize },
    /// LIFO stack of values; at most `max_entries` deep.
    Stack { max_entries: usize },
    /// Bounded ring buffer to user space; overwrites oldest when full.
    PerfEventArray { capacity: usize },
}

/// A map definition supplied at creation time.
#[derive(Debug, Clone)]
pub struct MapDef {
    pub name: String,
    pub kind: MapKind,
    pub key_size: usize,
    pub value_size: usize,
}

impl MapDef {
    pub fn hash(name: &str, key_size: usize, value_size: usize, max_entries: usize) -> Self {
        MapDef {
            name: name.into(),
            kind: MapKind::Hash { max_entries },
            key_size,
            value_size,
        }
    }

    pub fn array(name: &str, value_size: usize, entries: usize) -> Self {
        MapDef {
            name: name.into(),
            kind: MapKind::Array { entries },
            key_size: 4,
            value_size,
        }
    }

    pub fn stack(name: &str, value_size: usize, max_entries: usize) -> Self {
        MapDef {
            name: name.into(),
            kind: MapKind::Stack { max_entries },
            key_size: 0,
            value_size,
        }
    }

    pub fn perf_event_array(name: &str, capacity: usize) -> Self {
        MapDef {
            name: name.into(),
            kind: MapKind::PerfEventArray { capacity },
            key_size: 0,
            value_size: 0,
        }
    }
}

/// Fixed-stride value storage with a generation number per slot.
#[derive(Debug)]
struct Slab {
    bytes: Vec<u8>,
    stride: usize,
    gens: Vec<u32>,
}

impl Slab {
    fn new(stride: usize, slots: usize) -> Self {
        Slab {
            bytes: vec![0; stride * slots],
            stride,
            gens: vec![0; slots],
        }
    }

    /// Whether `slot` exists and its generation is still `gen`.
    fn live(&self, slot: u32, gen: u32) -> bool {
        self.gens.get(slot as usize) == Some(&gen)
    }

    /// The value in `slot` if its generation is still `gen`.
    fn get(&self, slot: u32, gen: u32) -> Option<&[u8]> {
        self.live(slot, gen).then(|| self.value(slot))
    }

    /// The value in `slot` (callers hold the slot from an index).
    fn value(&self, slot: u32) -> &[u8] {
        let start = slot as usize * self.stride;
        &self.bytes[start..start + self.stride]
    }

    fn value_mut(&mut self, slot: u32) -> &mut [u8] {
        let start = slot as usize * self.stride;
        &mut self.bytes[start..start + self.stride]
    }
}

#[derive(Debug)]
enum Storage {
    Hash {
        index: BTreeMap<MapKey, u32>,
        slab: Slab,
        /// Freed slots, most recently freed last (reused first).
        free: Vec<u32>,
    },
    Array(Slab),
    Stack(Vec<Vec<u8>>),
    Ring {
        buf: VecDeque<Vec<u8>>,
        dropped: u64,
        /// Records ever published (drained + live + dropped).
        produced: u64,
        /// Payload bytes ever published.
        bytes: u64,
        /// Occupancy high-water mark.
        hwm: usize,
        /// Recently overwritten records, kept (bounded) so the collector
        /// can attribute losses to a subsystem/OU by decoding headers.
        evicted: VecDeque<Vec<u8>>,
    },
}

/// A resolved hash or array value: valid while its slot's generation is
/// unchanged, i.e. until the key is deleted or the map cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueRef {
    map: MapId,
    slot: u32,
    gen: u32,
}

/// Point-in-time statistics for one perf ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    pub produced: u64,
    pub dropped: u64,
    pub bytes: u64,
    pub hwm: usize,
    pub len: usize,
    pub capacity: usize,
}

/// Registry-wide operation counters — the "map ops" half of the BPF VM's
/// telemetry. Plain integers here; the telemetry crate reads them out at
/// export time so `tscout-bpf` itself stays dependency-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapOpStats {
    pub lookups: u64,
    pub updates: u64,
    pub deletes: u64,
    pub pushes: u64,
    pub pops: u64,
    pub ring_pushes: u64,
    pub ring_drained: u64,
}

/// One live map.
#[derive(Debug)]
pub struct MapInstance {
    pub def: MapDef,
    storage: Storage,
}

/// Errors surfaced to BPF as negative return codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// `-E2BIG`: the map is full.
    Full,
    /// `-ENOENT`: no such element.
    NotFound,
    /// `-EINVAL`: wrong key/value size or wrong map kind for the operation.
    Invalid,
}

impl MapError {
    /// The errno-style value returned in `R0`.
    pub fn errno(self) -> i64 {
        match self {
            MapError::Full => -7,
            MapError::NotFound => -2,
            MapError::Invalid => -22,
        }
    }
}

/// All maps created through a loader.
#[derive(Debug, Default)]
pub struct MapRegistry {
    maps: Vec<MapInstance>,
    /// `Cell` because `lookup` and `deref` take `&self`.
    lookups: Cell<u64>,
    ops: MapOpStats,
}

impl MapRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create(&mut self, def: MapDef) -> MapId {
        let storage = match def.kind {
            MapKind::Hash { .. } => Storage::Hash {
                index: BTreeMap::new(),
                slab: Slab::new(def.value_size, 0),
                free: Vec::new(),
            },
            MapKind::Array { entries } => Storage::Array(Slab::new(def.value_size, entries)),
            MapKind::Stack { .. } => Storage::Stack(Vec::new()),
            MapKind::PerfEventArray { .. } => Storage::Ring {
                buf: VecDeque::new(),
                dropped: 0,
                produced: 0,
                bytes: 0,
                hwm: 0,
                evicted: VecDeque::new(),
            },
        };
        let id = MapId(self.maps.len() as u32);
        self.maps.push(MapInstance { def, storage });
        id
    }

    pub fn def(&self, id: MapId) -> Option<&MapDef> {
        self.maps.get(id.0 as usize).map(|m| &m.def)
    }

    pub fn len(&self) -> usize {
        self.maps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    fn map(&self, id: MapId) -> &MapInstance {
        &self.maps[id.0 as usize]
    }

    fn map_mut(&mut self, id: MapId) -> &mut MapInstance {
        &mut self.maps[id.0 as usize]
    }

    // ------------------------------------------------------------------
    // Hash / array element access
    // ------------------------------------------------------------------

    /// Look up a value. For arrays the key is a 4-byte LE index.
    pub fn lookup(&self, id: MapId, key: &[u8]) -> Option<&[u8]> {
        let r = self.lookup_ref(id, key)?;
        self.slab(r)?.get(r.slot, r.gen)
    }

    /// Resolve a key to a [`ValueRef`]. Counts one lookup.
    pub fn lookup_ref(&self, id: MapId, key: &[u8]) -> Option<ValueRef> {
        self.lookups.set(self.lookups.get() + 1);
        self.resolve(id, key)
    }

    /// Read a value through a [`ValueRef`] taken for `key`. Counts one
    /// lookup. When the slot's generation moved (the key was deleted,
    /// possibly re-inserted, or the map cleared) the key is resolved
    /// again and `r` refreshed, so the reference always reaches the live
    /// value for its key; `None` once the key is gone.
    pub fn deref(&self, r: &mut ValueRef, key: &[u8]) -> Option<&[u8]> {
        self.lookups.set(self.lookups.get() + 1);
        let slab = self.slab(*r)?;
        if let Some(v) = slab.get(r.slot, r.gen) {
            return Some(v);
        }
        *r = self.resolve(r.map, key)?;
        slab.get(r.slot, r.gen)
    }

    /// Mutable form of [`MapRegistry::deref`] (backs BPF's in-place
    /// value updates).
    pub fn deref_mut(&mut self, r: &mut ValueRef, key: &[u8]) -> Option<&mut [u8]> {
        self.lookups.set(self.lookups.get() + 1);
        if !self.slab(*r)?.live(r.slot, r.gen) {
            *r = self.resolve(r.map, key)?;
        }
        match &mut self.maps[r.map.0 as usize].storage {
            Storage::Hash { slab, .. } | Storage::Array(slab) => Some(slab.value_mut(r.slot)),
            _ => None,
        }
    }

    fn resolve(&self, id: MapId, key: &[u8]) -> Option<ValueRef> {
        let (slot, gen) = match &self.map(id).storage {
            Storage::Hash { index, slab, .. } => {
                let slot = *index.get(key)?;
                (slot, slab.gens[slot as usize])
            }
            Storage::Array(slab) => {
                let idx = array_index(key).filter(|&i| i < slab.gens.len())?;
                (idx as u32, 0)
            }
            _ => return None,
        };
        Some(ValueRef { map: id, slot, gen })
    }

    fn slab(&self, r: ValueRef) -> Option<&Slab> {
        match &self.maps.get(r.map.0 as usize)?.storage {
            Storage::Hash { slab, .. } | Storage::Array(slab) => Some(slab),
            _ => None,
        }
    }

    /// Insert or overwrite. Overwriting keeps the key's slot, so
    /// outstanding [`ValueRef`]s see the new value.
    pub fn update(&mut self, id: MapId, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        self.ops.updates += 1;
        let m = self.map_mut(id);
        if key.len() != m.def.key_size || value.len() != m.def.value_size {
            return Err(MapError::Invalid);
        }
        match (&mut m.storage, m.def.kind) {
            (Storage::Hash { index, slab, free }, MapKind::Hash { max_entries }) => {
                if let Some(&slot) = index.get(key) {
                    slab.value_mut(slot).copy_from_slice(value);
                    return Ok(());
                }
                if index.len() >= max_entries {
                    return Err(MapError::Full);
                }
                let slot = free.pop().unwrap_or_else(|| {
                    slab.gens.push(0);
                    slab.bytes.resize(slab.bytes.len() + slab.stride, 0);
                    slab.gens.len() as u32 - 1
                });
                slab.value_mut(slot).copy_from_slice(value);
                index.insert(MapKey::new(key), slot);
                Ok(())
            }
            (Storage::Array(slab), _) => {
                let idx = array_index(key).ok_or(MapError::Invalid)?;
                if idx >= slab.gens.len() {
                    return Err(MapError::NotFound);
                }
                slab.value_mut(idx as u32).copy_from_slice(value);
                Ok(())
            }
            _ => Err(MapError::Invalid),
        }
    }

    /// Remove a key. Its slot's generation moves on and the slot joins
    /// the free list.
    pub fn delete(&mut self, id: MapId, key: &[u8]) -> Result<(), MapError> {
        self.ops.deletes += 1;
        let m = self.map_mut(id);
        match &mut m.storage {
            Storage::Hash { index, slab, free } => {
                let slot = index.remove(key).ok_or(MapError::NotFound)?;
                let gen = &mut slab.gens[slot as usize];
                *gen = gen.wrapping_add(1);
                free.push(slot);
                Ok(())
            }
            _ => Err(MapError::Invalid),
        }
    }

    /// Number of live entries (hash/stack) or slots (array).
    pub fn entries(&self, id: MapId) -> usize {
        match &self.map(id).storage {
            Storage::Hash { index, .. } => index.len(),
            Storage::Array(slab) => slab.gens.len(),
            Storage::Stack(s) => s.len(),
            Storage::Ring { buf, .. } => buf.len(),
        }
    }

    // ------------------------------------------------------------------
    // Stack maps (recursive operators, paper §5.2)
    // ------------------------------------------------------------------

    pub fn push(&mut self, id: MapId, value: &[u8]) -> Result<(), MapError> {
        self.ops.pushes += 1;
        let m = self.map_mut(id);
        if value.len() != m.def.value_size {
            return Err(MapError::Invalid);
        }
        match (&mut m.storage, m.def.kind) {
            (Storage::Stack(s), MapKind::Stack { max_entries }) => {
                if s.len() >= max_entries {
                    return Err(MapError::Full);
                }
                s.push(value.to_vec());
                Ok(())
            }
            _ => Err(MapError::Invalid),
        }
    }

    pub fn pop(&mut self, id: MapId) -> Result<Vec<u8>, MapError> {
        self.ops.pops += 1;
        let m = self.map_mut(id);
        match &mut m.storage {
            Storage::Stack(s) => s.pop().ok_or(MapError::NotFound),
            _ => Err(MapError::Invalid),
        }
    }

    // ------------------------------------------------------------------
    // Perf event ring buffer (Collector → Processor channel, paper §3.2)
    // ------------------------------------------------------------------

    /// Publish a record. When the ring is full the *oldest* record is
    /// overwritten and the drop counter incremented; the producer never
    /// blocks (the "no back pressure" design property). The record is
    /// moved into the ring, not copied.
    pub fn ring_push(&mut self, id: MapId, data: Vec<u8>) -> Result<(), MapError> {
        self.ops.ring_pushes += 1;
        let m = self.map_mut(id);
        match (&mut m.storage, m.def.kind) {
            (
                Storage::Ring {
                    buf,
                    dropped,
                    produced,
                    bytes,
                    hwm,
                    evicted,
                },
                MapKind::PerfEventArray { capacity },
            ) => {
                if buf.len() >= capacity {
                    if let Some(old) = buf.pop_front() {
                        if evicted.len() >= EVICTED_KEEP {
                            evicted.pop_front();
                        }
                        evicted.push_back(old);
                    }
                    *dropped += 1;
                }
                *produced += 1;
                *bytes += data.len() as u64;
                buf.push_back(data);
                *hwm = (*hwm).max(buf.len());
                Ok(())
            }
            _ => Err(MapError::Invalid),
        }
    }

    /// Drain up to `max` records for the Processor.
    pub fn ring_drain(&mut self, id: MapId, max: usize) -> Vec<Vec<u8>> {
        let m = self.map_mut(id);
        let out: Vec<Vec<u8>> = match &mut m.storage {
            Storage::Ring { buf, .. } => {
                let n = buf.len().min(max);
                buf.drain(..n).collect()
            }
            _ => Vec::new(),
        };
        self.ops.ring_drained += out.len() as u64;
        out
    }

    /// Records overwritten because the ring was full.
    pub fn ring_dropped(&self, id: MapId) -> u64 {
        match &self.map(id).storage {
            Storage::Ring { dropped, .. } => *dropped,
            _ => 0,
        }
    }

    /// Full statistics for a perf ring.
    pub fn ring_stats(&self, id: MapId) -> RingStats {
        let m = self.map(id);
        match (&m.storage, m.def.kind) {
            (
                Storage::Ring {
                    buf,
                    dropped,
                    produced,
                    bytes,
                    hwm,
                    ..
                },
                MapKind::PerfEventArray { capacity },
            ) => RingStats {
                produced: *produced,
                dropped: *dropped,
                bytes: *bytes,
                hwm: *hwm,
                len: buf.len(),
                capacity,
            },
            _ => RingStats::default(),
        }
    }

    /// Take the retained payloads of recently overwritten records (for
    /// loss attribution). Clears the retained buffer.
    pub fn ring_take_evicted(&mut self, id: MapId) -> Vec<Vec<u8>> {
        match &mut self.map_mut(id).storage {
            Storage::Ring { evicted, .. } => evicted.drain(..).collect(),
            _ => Vec::new(),
        }
    }

    /// Registry-wide operation counters.
    pub fn op_stats(&self) -> MapOpStats {
        MapOpStats {
            lookups: self.lookups.get(),
            ..self.ops
        }
    }

    /// Current ring occupancy.
    pub fn ring_len(&self, id: MapId) -> usize {
        self.entries(id)
    }

    /// Canonical snapshot of one map's data, for differential testing
    /// and diagnostics: `(key, value)` pairs in deterministic order.
    /// Hash maps report sorted key/value pairs; arrays report index →
    /// value; stacks and rings report position → record (bottom/oldest
    /// first). Does not consume or mutate anything (unlike
    /// [`MapRegistry::ring_drain`]) and bumps no op counters.
    pub fn dump(&self, id: MapId) -> Vec<(Vec<u8>, Vec<u8>)> {
        let idx_key = |i: usize| (i as u32).to_le_bytes().to_vec();
        match &self.map(id).storage {
            Storage::Hash { index, slab, .. } => index
                .iter()
                .map(|(k, &slot)| (k.to_vec(), slab.value(slot).to_vec()))
                .collect(),
            Storage::Array(slab) => (0..slab.gens.len())
                .map(|i| (idx_key(i), slab.value(i as u32).to_vec()))
                .collect(),
            Storage::Stack(s) => s
                .iter()
                .enumerate()
                .map(|(i, v)| (idx_key(i), v.clone()))
                .collect(),
            Storage::Ring { buf, .. } => buf
                .iter()
                .enumerate()
                .map(|(i, v)| (idx_key(i), v.clone()))
                .collect(),
        }
    }

    /// Clear all dynamic contents (reload support, §5.4). Every hash
    /// slot's generation moves on, so no earlier [`ValueRef`] reaches a
    /// value inserted afterwards; array slots stay valid and read zero.
    pub fn clear(&mut self, id: MapId) {
        let m = self.map_mut(id);
        match &mut m.storage {
            Storage::Hash { index, slab, free } => {
                index.clear();
                free.clear();
                for (slot, gen) in slab.gens.iter_mut().enumerate().rev() {
                    *gen = gen.wrapping_add(1);
                    free.push(slot as u32);
                }
            }
            Storage::Array(slab) => slab.bytes.fill(0),
            Storage::Stack(s) => s.clear(),
            Storage::Ring {
                buf,
                dropped,
                evicted,
                ..
            } => {
                buf.clear();
                evicted.clear();
                *dropped = 0;
            }
        }
    }
}

fn array_index(key: &[u8]) -> Option<usize> {
    if key.len() != 4 {
        return None;
    }
    Some(u32::from_le_bytes([key[0], key[1], key[2], key[3]]) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    #[test]
    fn hash_crud() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 16, 4));
        assert!(r.lookup(m, &key(1)).is_none());
        r.update(m, &key(1), &[7u8; 16]).unwrap();
        assert_eq!(r.lookup(m, &key(1)).unwrap(), &[7u8; 16]);
        r.update(m, &key(1), &[9u8; 16]).unwrap();
        assert_eq!(r.lookup(m, &key(1)).unwrap(), &[9u8; 16]);
        r.delete(m, &key(1)).unwrap();
        assert_eq!(r.delete(m, &key(1)), Err(MapError::NotFound));
    }

    #[test]
    fn hash_respects_max_entries() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 1, 2));
        r.update(m, &key(1), &[0]).unwrap();
        r.update(m, &key(2), &[0]).unwrap();
        assert_eq!(r.update(m, &key(3), &[0]), Err(MapError::Full));
        // Overwriting an existing key is always allowed.
        r.update(m, &key(1), &[1]).unwrap();
    }

    #[test]
    fn wrong_sizes_rejected() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 2));
        assert_eq!(r.update(m, &[1, 2], &[0; 4]), Err(MapError::Invalid));
        assert_eq!(r.update(m, &key(1), &[0; 3]), Err(MapError::Invalid));
    }

    #[test]
    fn array_indexing() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::array("a", 8, 3));
        let idx = 2u32.to_le_bytes();
        r.update(m, &idx, &42u64.to_le_bytes()).unwrap();
        assert_eq!(r.lookup(m, &idx).unwrap(), &42u64.to_le_bytes());
        let oob = 9u32.to_le_bytes();
        assert!(r.lookup(m, &oob).is_none());
        assert_eq!(r.update(m, &oob, &[0; 8]), Err(MapError::NotFound));
    }

    #[test]
    fn stack_lifo_and_bounds() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::stack("s", 8, 2));
        r.push(m, &1u64.to_le_bytes()).unwrap();
        r.push(m, &2u64.to_le_bytes()).unwrap();
        assert_eq!(r.push(m, &3u64.to_le_bytes()), Err(MapError::Full));
        assert_eq!(r.pop(m).unwrap(), 2u64.to_le_bytes());
        assert_eq!(r.pop(m).unwrap(), 1u64.to_le_bytes());
        assert_eq!(r.pop(m), Err(MapError::NotFound));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::perf_event_array("ring", 2));
        r.ring_push(m, b"a".to_vec()).unwrap();
        r.ring_push(m, b"b".to_vec()).unwrap();
        r.ring_push(m, b"c".to_vec()).unwrap(); // overwrites "a"
        assert_eq!(r.ring_dropped(m), 1);
        let drained = r.ring_drain(m, 10);
        assert_eq!(drained, vec![b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(r.ring_len(m), 0);
    }

    #[test]
    fn ring_drain_respects_max() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::perf_event_array("ring", 10));
        for i in 0..5u8 {
            r.ring_push(m, vec![i]).unwrap();
        }
        let first = r.ring_drain(m, 2);
        assert_eq!(first, vec![vec![0], vec![1]]);
        assert_eq!(r.ring_len(m), 3);
    }

    #[test]
    fn deref_mut_mutates_in_place() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 2));
        r.update(m, &key(5), &[0; 4]).unwrap();
        let mut h = r.lookup_ref(m, &key(5)).unwrap();
        r.deref_mut(&mut h, &key(5)).unwrap()[0] = 0xAB;
        assert_eq!(r.lookup(m, &key(5)).unwrap()[0], 0xAB);
    }

    #[test]
    fn update_of_live_key_is_visible_through_earlier_ref() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 4));
        r.update(m, &key(1), &[1; 4]).unwrap();
        let mut h = r.lookup_ref(m, &key(1)).unwrap();
        r.update(m, &key(1), &[2; 4]).unwrap();
        assert_eq!(r.deref(&mut h, &key(1)).unwrap(), &[2; 4]);
    }

    #[test]
    fn delete_invalidates_and_reinsert_is_reached_again() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 4));
        r.update(m, &key(1), &[1; 4]).unwrap();
        r.update(m, &key(2), &[2; 4]).unwrap();
        let mut h = r.lookup_ref(m, &key(1)).unwrap();
        r.delete(m, &key(1)).unwrap();
        assert!(r.deref(&mut h, &key(1)).is_none());
        assert!(r.deref_mut(&mut h, &key(1)).is_none());
        // Key 3 takes key 1's freed slot; the old reference must not
        // reach it, but must reach key 1 once it is back.
        r.update(m, &key(3), &[3; 4]).unwrap();
        assert!(r.deref(&mut h, &key(1)).is_none());
        r.update(m, &key(1), &[9; 4]).unwrap();
        assert_eq!(r.deref(&mut h, &key(1)).unwrap(), &[9; 4]);
        r.deref_mut(&mut h, &key(1)).unwrap()[0] = 7;
        assert_eq!(r.lookup(m, &key(1)).unwrap(), &[7, 9, 9, 9]);
        assert_eq!(r.lookup(m, &key(3)).unwrap(), &[3; 4]);
    }

    #[test]
    fn clear_invalidates_refs() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 4));
        r.update(m, &key(1), &[1; 4]).unwrap();
        let mut h = r.lookup_ref(m, &key(1)).unwrap();
        r.clear(m);
        assert!(r.deref(&mut h, &key(1)).is_none());
        // A different key now occupies slot 0 at a new generation.
        r.update(m, &key(2), &[2; 4]).unwrap();
        assert!(r.deref(&mut h, &key(1)).is_none());
        // Array values survive a clear, zeroed.
        let a = r.create(MapDef::array("a", 4, 2));
        let idx = 1u32.to_le_bytes();
        r.update(a, &idx, &[5; 4]).unwrap();
        let mut ha = r.lookup_ref(a, &idx).unwrap();
        r.clear(a);
        assert_eq!(r.deref(&mut ha, &idx).unwrap(), &[0; 4]);
    }

    #[test]
    fn refs_count_one_lookup_per_access() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 4));
        r.update(m, &key(1), &[1; 4]).unwrap();
        let mut h = r.lookup_ref(m, &key(1)).unwrap();
        r.deref(&mut h, &key(1));
        r.deref_mut(&mut h, &key(1));
        r.delete(m, &key(1)).unwrap();
        r.deref(&mut h, &key(1)); // a miss still counts
        assert_eq!(r.op_stats().lookups, 4);
    }

    #[test]
    fn freed_slots_are_reused_without_changing_key_order() {
        // The same operations against a plain ordered model: contents,
        // order and counts must agree whatever slots were recycled.
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 8, 64));
        let mut model = BTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key(x % 48);
            if x.is_multiple_of(3) {
                assert_eq!(r.delete(m, &k).is_ok(), model.remove(&k).is_some());
            } else {
                r.update(m, &k, &step.to_le_bytes()).unwrap();
                model.insert(k, step.to_le_bytes().to_vec());
            }
            assert_eq!(r.entries(m), model.len());
        }
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(r.dump(m), expect);
        // Slots are never over-allocated: at most max-live-ever slots.
        match &r.map(m).storage {
            Storage::Hash { slab, index, free } => {
                assert_eq!(slab.gens.len(), index.len() + free.len());
                assert!(slab.gens.len() <= 48);
            }
            _ => unreachable!(),
        }
        // After a clear, new keys fill slots from the bottom up; after
        // deletes, the most recently freed slot is taken first.
        let slot = |r: &MapRegistry, k| r.lookup_ref(m, &key(k)).unwrap().slot;
        r.clear(m);
        for k in 100..103 {
            r.update(m, &key(k), &[1; 8]).unwrap();
        }
        assert_eq!([slot(&r, 100), slot(&r, 101), slot(&r, 102)], [0, 1, 2]);
        r.delete(m, &key(100)).unwrap();
        r.delete(m, &key(102)).unwrap();
        r.update(m, &key(200), &[2; 8]).unwrap();
        r.update(m, &key(201), &[3; 8]).unwrap();
        assert_eq!([slot(&r, 200), slot(&r, 201)], [2, 0]);
    }

    #[test]
    fn large_keys_and_values_work() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("big", 40, 1024, 4));
        let k1 = [0xEEu8; 40];
        let mut k2 = [0xEEu8; 40];
        k2[39] = 0x01;
        r.update(m, &k1, &[1; 1024]).unwrap();
        r.update(m, &k2, &[2; 1024]).unwrap();
        let mut h = r.lookup_ref(m, &k1).unwrap();
        assert_eq!(r.deref(&mut h, &k1).unwrap(), &[1; 1024][..]);
        let dump = r.dump(m);
        assert_eq!(dump[0].0, k2.to_vec(), "heap keys order by bytes");
        assert_eq!(dump[1].1, vec![1; 1024]);
        r.delete(m, &k1).unwrap();
        assert!(r.deref(&mut h, &k1).is_none());
    }

    #[test]
    fn small_bytes_order_like_slices() {
        let a = MapKey::new(&[1, 2]);
        let b = MapKey::new(&[1, 2, 0]);
        let c = MapKey::new(&[7; 20]);
        assert!(a < b && b < c);
        assert_eq!(c.as_slice(), &[7; 20]);
        assert_eq!(MapKey::new(&[]), MapKey::default());
    }

    #[test]
    fn ring_stats_track_production_and_hwm() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::perf_event_array("ring", 3));
        for i in 0..5u8 {
            r.ring_push(m, vec![i, i]).unwrap();
        }
        let s = r.ring_stats(m);
        assert_eq!(s.produced, 5);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.bytes, 10);
        assert_eq!(s.hwm, 3);
        assert_eq!(s.len, 3);
        assert_eq!(s.capacity, 3);
        // The two overwritten records are retained for attribution.
        let evicted = r.ring_take_evicted(m);
        assert_eq!(evicted, vec![vec![0, 0], vec![1, 1]]);
        assert!(r.ring_take_evicted(m).is_empty(), "take drains the buffer");
    }

    #[test]
    fn op_stats_count_operations() {
        let mut r = MapRegistry::new();
        let h = r.create(MapDef::hash("h", 8, 4, 8));
        let s = r.create(MapDef::stack("s", 8, 4));
        let p = r.create(MapDef::perf_event_array("p", 4));
        r.update(h, &key(1), &[0; 4]).unwrap();
        r.lookup(h, &key(1));
        r.lookup(h, &key(2));
        r.delete(h, &key(1)).unwrap();
        r.push(s, &key(9)).unwrap();
        r.pop(s).unwrap();
        r.ring_push(p, b"x".to_vec()).unwrap();
        r.ring_drain(p, 10);
        let ops = r.op_stats();
        assert_eq!(ops.updates, 1);
        assert_eq!(ops.lookups, 2);
        assert_eq!(ops.deletes, 1);
        assert_eq!(ops.pushes, 1);
        assert_eq!(ops.pops, 1);
        assert_eq!(ops.ring_pushes, 1);
        assert_eq!(ops.ring_drained, 1);
    }

    #[test]
    fn clear_resets_contents() {
        let mut r = MapRegistry::new();
        let h = r.create(MapDef::hash("h", 8, 4, 8));
        let a = r.create(MapDef::array("a", 8, 2));
        r.update(h, &key(1), &[1; 4]).unwrap();
        r.update(a, &0u32.to_le_bytes(), &7u64.to_le_bytes())
            .unwrap();
        r.clear(h);
        r.clear(a);
        assert_eq!(r.entries(h), 0);
        assert_eq!(r.lookup(a, &0u32.to_le_bytes()).unwrap(), &[0; 8]);
    }
}
