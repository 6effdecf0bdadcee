//! Pooled adjacency storage: one arena for every neighbor list.
//!
//! `Vec<Vec<NodeId>>` adjacency costs one heap allocation per node and
//! scatters neighbor lists across the heap, so the hot healing loops
//! (`propagate_min_id`, `delete_node_into`, the DASH/SDASH rewiring
//! walks) chase a fresh pointer per `neighbors()` call. [`AdjPool`]
//! replaces that with a single `Vec<NodeId>` arena carved into
//! power-of-two **chunks** (capacities `4 << class`): each node owns one
//! contiguous chunk described by a [`ChunkRef`] `{offset, len, class}`,
//! so a neighbor list is still one real `&[NodeId]` slice — the public
//! `Graph` API is unchanged — but all lists live in one allocation.
//!
//! Freed chunks (node deletions, growth reallocations) go on a per-class
//! **intrusive free list**: the arena offset of the next free chunk is
//! stored in the freed chunk's own first slot (every chunk holds ≥ 4
//! `u32`-sized entries, so the link always fits). The list heads are a
//! fixed array inside the pool, one per size class whose chunk a `u32`
//! offset can address, so no pool ever allocates for them.
//! Growth is amortized doubling: a full chunk reallocates into the next
//! class, copies, and frees the old chunk for reuse. The arena itself
//! never shrinks — its high-water mark is the peak total adjacency size,
//! and after that steady-state churn is allocation-free.
//!
//! A list whose final length is known up front is carved once instead.
//! [`AdjPool::reserve`] sizes one chunk per list, each in the smallest
//! class that holds it, in one arena growth; [`AdjPool::with_lists`]
//! does the same on a new pool whose arena capacity is rounded up to the
//! next power of two. That spare room is what the doubling path would
//! have left: a freshly built graph's first chunk growths carve from it
//! without reallocating the arena. `Graph::from_edges` builds this way,
//! and `Graph`'s degree index sizes its buckets with one
//! [`AdjPool::reserve`], then appends with [`AdjPool::push`] and removes
//! with [`AdjPool::swap_remove`].
//!
//! A [`SmallList`] is the handle for stores whose lists are mostly
//! short: it holds up to [`INLINE`] values itself and spills a longer
//! list to a chunk of a pool. `selfheal-core` keeps the healing graph
//! `G'` this way, one `SmallList` inside each node's record.

use crate::ids::NodeId;

/// Sentinel arena offset meaning "no chunk" / "end of free list".
const NIL: u32 = u32::MAX;

/// Smallest chunk capacity (class 0). Must be ≥ 1 so the intrusive
/// free-list link fits in slot 0; 4 keeps tiny-degree nodes compact
/// while bounding the class count (`4 << 27` already exceeds `u32` ids).
const MIN_CAP: u32 = 4;

/// Number of size classes: class `CLASSES - 1` holds `2³¹` values, the
/// largest power of two a `u32` offset range can address.
const CLASSES: usize = (u32::BITS - MIN_CAP.trailing_zeros()) as usize;

/// Handle to one node's chunk in an [`AdjPool`].
///
/// `Default` is the empty handle: no chunk allocated, length 0. The
/// arena allocates lazily on first insert, so building a graph with `n`
/// isolated nodes touches the pool not at all.
///
/// The handle also carries its slot's liveness flag, in what would
/// otherwise be padding, so a `Graph` answers `is_alive` from the same
/// 12 bytes as `degree` and `neighbors`. The pool itself never reads the
/// flag: growth keeps it, and [`AdjPool::clear`] resets the handle to
/// the default, which is not live (a tombstone). A degree bucket leaves
/// it unset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkRef {
    off: u32,
    len: u32,
    class: u8,
    live: bool,
}

impl Default for ChunkRef {
    fn default() -> Self {
        ChunkRef {
            off: NIL,
            len: 0,
            class: 0,
            live: false,
        }
    }
}

impl ChunkRef {
    /// The empty handle of a live slot: an isolated node.
    pub const LIVE: ChunkRef = ChunkRef {
        off: NIL,
        len: 0,
        class: 0,
        live: true,
    };

    /// Whether the handle is marked live (see the type docs).
    #[inline]
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Number of values stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The arena of adjacency chunks. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct AdjPool {
    /// The single backing allocation for every chunk.
    slots: Vec<NodeId>,
    /// Head of the free list per size class (`NIL` when empty); the next
    /// link of a free chunk lives in its own slot 0.
    free_heads: [u32; CLASSES],
}

impl Default for AdjPool {
    fn default() -> Self {
        AdjPool::with_capacity(0)
    }
}

/// Capacity of a size class.
#[inline]
fn cap_of(class: u8) -> u32 {
    MIN_CAP << class
}

/// The smallest size class that holds `len` values.
fn class_for(len: usize) -> u8 {
    let mut class = 0;
    while (cap_of(class) as usize) < len {
        class += 1;
    }
    class
}

/// The size class of each entry of `lens` (`None` for 0).
fn chunk_classes(lens: &[u32]) -> impl Iterator<Item = Option<u8>> + '_ {
    lens.iter()
        .map(|&len| (len > 0).then(|| class_for(len as usize)))
}

/// Arena entries that one chunk per entry of `lens` takes.
///
/// # Panics
/// Panics if they exceed the `u32` offset range.
fn entries_for(lens: &[u32]) -> usize {
    let total: usize = chunk_classes(lens)
        .flatten()
        .map(|class| cap_of(class) as usize)
        .sum();
    assert!(total <= NIL as usize, "adjacency arena exceeds u32 offsets");
    total
}

impl AdjPool {
    /// An empty pool with room for `entries` values in its arena, so it
    /// allocates nothing until the arena outgrows `entries`.
    pub fn with_capacity(entries: usize) -> Self {
        AdjPool {
            slots: Vec::with_capacity(entries),
            free_heads: [NIL; CLASSES],
        }
    }

    /// A new pool holding one empty chunk per entry of `lens`, as
    /// [`AdjPool::reserve`] carves them, with the arena's capacity
    /// rounded up to the next power of two: the spare room lets the
    /// lists' first growths carve new chunks without reallocating. Lists
    /// that are all empty leave the arena unallocated.
    pub fn with_lists(lens: &[u32], empty: ChunkRef) -> (AdjPool, Vec<ChunkRef>) {
        let entries = match entries_for(lens) {
            0 => 0,
            total => total.next_power_of_two(),
        };
        let mut pool = AdjPool::with_capacity(entries);
        let refs = pool.reserve(lens, empty);
        (pool, refs)
    }

    /// The values of a chunk, as one contiguous slice.
    #[inline]
    pub fn slice(&self, r: &ChunkRef) -> &[NodeId] {
        if r.off == NIL {
            &[]
        } else {
            &self.slots[r.off as usize..(r.off + r.len) as usize]
        }
    }

    /// Total arena entries (live + free chunks) — the memory high-water
    /// mark in `NodeId` units.
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// The values of a chunk, mutably.
    #[inline]
    pub fn slice_mut(&mut self, r: &ChunkRef) -> &mut [NodeId] {
        if r.off == NIL {
            &mut []
        } else {
            &mut self.slots[r.off as usize..(r.off + r.len) as usize]
        }
    }

    /// Pop a free chunk of `class`, or carve a fresh one off the arena.
    fn alloc(&mut self, class: u8) -> u32 {
        let head = self.free_heads[class as usize];
        if head != NIL {
            self.free_heads[class as usize] = self.slots[head as usize].0;
            return head;
        }
        let off = self.slots.len();
        assert!(
            off + cap_of(class) as usize <= NIL as usize,
            "adjacency arena exceeds u32 offsets"
        );
        self.slots.resize(off + cap_of(class) as usize, NodeId(NIL));
        off as u32
    }

    /// Push a chunk onto its class's free list (intrusive link in slot 0).
    fn free(&mut self, off: u32, class: u8) {
        self.slots[off as usize] = NodeId(self.free_heads[class as usize]);
        self.free_heads[class as usize] = off;
    }

    /// Reallocate `r` into the next size class, copying its values.
    fn grow(&mut self, r: &mut ChunkRef) {
        let new_class = if r.off == NIL { 0 } else { r.class + 1 };
        self.move_to(r, new_class);
    }

    /// Reallocate `r` into size class `new_class` (which must hold its
    /// values), copying them.
    fn move_to(&mut self, r: &mut ChunkRef, new_class: u8) {
        let new_off = self.alloc(new_class);
        if r.off != NIL {
            self.slots
                .copy_within(r.off as usize..(r.off + r.len) as usize, new_off as usize);
            self.free(r.off, r.class);
        }
        r.off = new_off;
        r.class = new_class;
    }

    /// Insert `value` at `pos` (≤ len), shifting the tail right; grows the
    /// chunk into the next size class when full.
    pub fn insert_at(&mut self, r: &mut ChunkRef, pos: usize, value: NodeId) {
        debug_assert!(pos <= r.len as usize);
        if r.off == NIL || r.len == cap_of(r.class) {
            self.grow(r);
        }
        let base = r.off as usize;
        self.slots
            .copy_within(base + pos..base + r.len as usize, base + pos + 1);
        self.slots[base + pos] = value;
        r.len += 1;
    }

    /// One empty chunk per entry of `lens`, each of the smallest class
    /// that holds that many values (no chunk for 0), carved from the
    /// arena after growing it once for all of them. Each handle starts
    /// as `empty` with its chunk attached, so it keeps `empty`'s liveness
    /// flag. Filling a chunk with [`AdjPool::push`] up to its length then
    /// never moves it.
    pub fn reserve(&mut self, lens: &[u32], empty: ChunkRef) -> Vec<ChunkRef> {
        debug_assert!(empty.is_empty(), "a template handle owns no chunk");
        self.slots.reserve(entries_for(lens));
        chunk_classes(lens)
            .map(|class| match class {
                Some(class) => ChunkRef {
                    off: self.alloc(class),
                    class,
                    ..empty
                },
                None => empty,
            })
            .collect()
    }

    /// Append `value`; grows the chunk into the next size class when full.
    #[inline]
    pub fn push(&mut self, r: &mut ChunkRef, value: NodeId) {
        if r.off == NIL || r.len == cap_of(r.class) {
            self.grow(r);
        }
        self.slots[(r.off + r.len) as usize] = value;
        r.len += 1;
    }

    /// Remove the value at `pos` (< len) by moving the last value into
    /// its place, and return the moved value (the removed one itself when
    /// `pos` was the last position).
    #[inline]
    pub fn swap_remove(&mut self, r: &mut ChunkRef, pos: usize) -> NodeId {
        debug_assert!(pos < r.len as usize);
        r.len -= 1;
        let base = r.off as usize;
        let last = self.slots[base + r.len as usize];
        self.slots[base + pos] = last;
        last
    }

    /// Remove and return the value at `pos` (< len), shifting the tail left.
    pub fn remove_at(&mut self, r: &mut ChunkRef, pos: usize) -> NodeId {
        debug_assert!(pos < r.len as usize);
        let base = r.off as usize;
        let value = self.slots[base + pos];
        self.slots
            .copy_within(base + pos + 1..base + r.len as usize, base + pos);
        r.len -= 1;
        value
    }

    /// Release the chunk entirely (tombstoned node): the chunk returns to
    /// the free list for reuse and `r` becomes the default handle, empty
    /// and not live.
    pub fn clear(&mut self, r: &mut ChunkRef) {
        if r.off != NIL {
            self.free(r.off, r.class);
        }
        *r = ChunkRef::default();
    }

    /// Number of chunks currently on free lists (test/diagnostic hook).
    pub fn free_chunk_count(&self) -> usize {
        let mut count = 0;
        for (class, &head) in self.free_heads.iter().enumerate() {
            let mut off = head;
            let mut guard = 0usize;
            while off != NIL {
                count += 1;
                off = self.slots[off as usize].0;
                guard += 1;
                assert!(
                    guard <= self.slots.len() / cap_of(class as u8) as usize + 1,
                    "cycle in free list of class {class}"
                );
            }
        }
        count
    }
}

/// Values a [`SmallList`] holds without a chunk.
pub const INLINE: usize = 3;

/// A sorted list of up to [`INLINE`] values held in the handle itself,
/// spilling to an [`AdjPool`] chunk once it grows longer: 16 bytes that
/// hold a short list whole, so reading it costs no second cache line.
///
/// The list is inline exactly when `len <= INLINE`. A spilled list keeps
/// its chunk's arena offset in `data[0]` and its size class in
/// `data[1]`; the chunk's length is `len`. Growing past [`INLINE`]
/// moves the values into a chunk of the smallest class, and shrinking
/// back to [`INLINE`] moves them home and frees the chunk, so the rule
/// holds both ways and a handle never owns a chunk it does not need.
#[derive(Clone, Copy, Debug)]
pub struct SmallList {
    len: u32,
    data: [NodeId; INLINE],
}

impl Default for SmallList {
    fn default() -> Self {
        SmallList::EMPTY
    }
}

impl SmallList {
    /// The empty list.
    pub const EMPTY: SmallList = SmallList {
        len: 0,
        data: [NodeId(NIL); INLINE],
    };

    /// Number of values stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the values live in a pool chunk.
    #[inline]
    fn spilled(&self) -> bool {
        self.len as usize > INLINE
    }

    /// The chunk handle of a spilled list.
    fn chunk(&self) -> ChunkRef {
        ChunkRef {
            off: self.data[0].0,
            len: self.len,
            class: self.data[1].0 as u8,
            live: false,
        }
    }

    /// Store `r` as this list's chunk (its length must exceed [`INLINE`]).
    fn set_chunk(&mut self, r: ChunkRef) {
        debug_assert!(r.len() > INLINE);
        self.len = r.len;
        self.data[0] = NodeId(r.off);
        self.data[1] = NodeId(u32::from(r.class));
    }

    /// The values, as one contiguous slice.
    #[inline]
    pub fn slice<'a>(&'a self, pool: &'a AdjPool) -> &'a [NodeId] {
        if self.spilled() {
            pool.slice(&self.chunk())
        } else {
            &self.data[..self.len as usize]
        }
    }

    /// Insert `value` at `pos` (≤ len), shifting the tail right; the
    /// fourth value spills the list to a chunk of `pool`.
    pub fn insert_at(&mut self, pool: &mut AdjPool, pos: usize, value: NodeId) {
        let len = self.len as usize;
        debug_assert!(pos <= len);
        if len < INLINE {
            self.data.copy_within(pos..len, pos + 1);
            self.data[pos] = value;
            self.len += 1;
            return;
        }
        let mut r = if len == INLINE {
            let mut r = ChunkRef::default();
            for &v in &self.data {
                pool.push(&mut r, v);
            }
            r
        } else {
            self.chunk()
        };
        pool.insert_at(&mut r, pos, value);
        self.set_chunk(r);
    }

    /// Remove and return the value at `pos` (< len), shifting the tail
    /// left; a spilled list that shrinks to [`INLINE`] values moves back
    /// inline and frees its chunk.
    pub fn remove_at(&mut self, pool: &mut AdjPool, pos: usize) -> NodeId {
        let len = self.len as usize;
        debug_assert!(pos < len);
        if len <= INLINE {
            let value = self.data[pos];
            self.data.copy_within(pos + 1..len, pos);
            self.len -= 1;
            return value;
        }
        let mut r = self.chunk();
        let value = pool.remove_at(&mut r, pos);
        if r.len() == INLINE {
            self.data.copy_from_slice(pool.slice(&r));
            self.len = INLINE as u32;
            pool.clear(&mut r);
        } else {
            self.set_chunk(r);
        }
        value
    }

    /// Empty the list, returning a spilled list's chunk to `pool`.
    pub fn clear(&mut self, pool: &mut AdjPool) {
        if self.spilled() {
            pool.clear(&mut self.chunk());
        }
        *self = SmallList::EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(r: &AdjPool, c: &ChunkRef) -> Vec<u32> {
        r.slice(c).iter().map(|n| n.0).collect()
    }

    #[test]
    fn the_liveness_flag_fits_in_the_handle_padding() {
        assert_eq!(std::mem::size_of::<ChunkRef>(), 12);
        let mut pool = AdjPool::default();
        let mut r = ChunkRef::LIVE;
        for v in 0..9u32 {
            pool.push(&mut r, NodeId(v));
        }
        assert!(r.is_live(), "growth keeps the flag");
        pool.clear(&mut r);
        assert!(!r.is_live(), "a cleared handle is a tombstone");
    }

    #[test]
    fn empty_ref_is_an_empty_slice() {
        let pool = AdjPool::default();
        let r = ChunkRef::default();
        assert!(r.is_empty());
        assert_eq!(pool.slice(&r), &[] as &[NodeId]);
        assert_eq!(pool.arena_len(), 0);
    }

    #[test]
    fn insert_shifts_and_grows_through_classes() {
        let mut pool = AdjPool::default();
        let mut r = ChunkRef::default();
        // Insert 0..20 at the front in reverse so shifting is exercised.
        for v in (0..20u32).rev() {
            pool.insert_at(&mut r, 0, NodeId(v));
        }
        assert_eq!(r.len(), 20);
        assert_eq!(ids(&pool, &r), (0..20).collect::<Vec<_>>());
        // 20 values need a class-3 chunk (cap 32); classes 0..=2 were
        // grown through and freed.
        assert_eq!(pool.free_chunk_count(), 3);
    }

    #[test]
    fn remove_at_returns_value_and_shifts() {
        let mut pool = AdjPool::default();
        let mut r = ChunkRef::default();
        for v in 0..6u32 {
            pool.insert_at(&mut r, v as usize, NodeId(v));
        }
        assert_eq!(pool.remove_at(&mut r, 2), NodeId(2));
        assert_eq!(pool.remove_at(&mut r, 0), NodeId(0));
        assert_eq!(ids(&pool, &r), vec![1, 3, 4, 5]);
    }

    #[test]
    fn push_and_swap_remove_work_at_the_tail() {
        let mut pool = AdjPool::default();
        let mut r = ChunkRef::default();
        for v in 0..6u32 {
            pool.push(&mut r, NodeId(v));
        }
        // The last value fills the hole; removing the last returns itself.
        assert_eq!(pool.swap_remove(&mut r, 1), NodeId(5));
        assert_eq!(pool.swap_remove(&mut r, 4), NodeId(4));
        assert_eq!(ids(&pool, &r), vec![0, 5, 2, 3]);
    }

    #[test]
    fn reserve_sizes_each_chunk_to_fit_in_one_arena_growth() {
        let mut pool = AdjPool::default();
        let mut refs = pool.reserve(&[3, 0, 5, 4], ChunkRef::default());
        // Classes 0, none, 1, 0: one arena of 4 + 8 + 4 slots.
        assert_eq!(pool.arena_len(), 4 + 8 + 4);
        assert!(refs[1].is_empty());
        assert_eq!(pool.slice(&refs[1]), &[] as &[NodeId]);
        for v in 0..5u32 {
            pool.push(&mut refs[2], NodeId(v));
        }
        // Filling a reserved chunk to its length never moves it.
        assert_eq!(pool.arena_len(), 4 + 8 + 4);
        assert_eq!(pool.free_chunk_count(), 0);
        assert_eq!(ids(&pool, &refs[2]), (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn with_lists_leaves_the_doubling_paths_spare_room() {
        // Chunks of 4, 8, none, 4 and 16 entries: 32, already a power of
        // two. One more class-0 list makes 36, whose arena gets room for
        // 64.
        let (pool, _) = AdjPool::with_lists(&[0, 0], ChunkRef::LIVE);
        assert_eq!(pool.slots.capacity(), 0, "no lists, no arena");
        let (pool, refs) = AdjPool::with_lists(&[3, 5, 0, 4, 9], ChunkRef::LIVE);
        assert_eq!(pool.arena_len(), 32);
        assert_eq!(pool.slots.capacity(), 32);
        assert!(refs.iter().all(ChunkRef::is_live), "the template's flag");
        assert!(refs[2].is_empty() && refs[2].off == NIL);
        let (mut pool, mut refs) = AdjPool::with_lists(&[3, 5, 0, 4, 9, 1], ChunkRef::LIVE);
        assert_eq!(pool.arena_len(), 36);
        assert_eq!(pool.slots.capacity(), 64);
        // Filling, then outgrowing, a list carves from the spare room.
        let arena = pool.slots.as_ptr();
        for v in 0..9u32 {
            pool.push(&mut refs[4], NodeId(v));
        }
        assert_eq!(pool.arena_len(), 36, "a reserved chunk fills in place");
        for v in 0..9u32 {
            pool.push(&mut refs[1], NodeId(v));
        }
        assert_eq!(pool.arena_len(), 52);
        assert_eq!(pool.slots.as_ptr(), arena, "no reallocation");
        assert_eq!(ids(&pool, &refs[1]), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn a_pool_keeps_its_free_list_heads_inline() {
        // Every class a u32 offset can address has a head: the largest
        // class's chunk still fits below the NIL offset.
        assert_eq!(CLASSES, 30);
        assert!(cap_of(CLASSES as u8 - 1) as usize <= NIL as usize);
        assert_eq!(u64::from(MIN_CAP) << CLASSES, 1u64 << 32);
        let mut pool = AdjPool::default();
        let mut r = ChunkRef::default();
        for v in 0..100u32 {
            pool.push(&mut r, NodeId(v));
        }
        pool.clear(&mut r);
        assert_eq!(pool.free_chunk_count(), 6, "classes 0 to 5");
    }

    #[test]
    fn freed_chunks_are_reused_not_leaked() {
        let mut pool = AdjPool::default();
        let mut a = ChunkRef::default();
        for v in 0..4u32 {
            pool.insert_at(&mut a, 0, NodeId(v));
        }
        let high_water = pool.arena_len();
        pool.clear(&mut a);
        assert_eq!(a, ChunkRef::default());
        // A same-class allocation must reuse the freed chunk: the arena
        // does not grow.
        let mut b = ChunkRef::default();
        pool.insert_at(&mut b, 0, NodeId(9));
        assert_eq!(pool.arena_len(), high_water);
        assert_eq!(ids(&pool, &b), vec![9]);
        assert_eq!(pool.free_chunk_count(), 0);
    }

    #[test]
    fn many_lists_interleaved_stay_disjoint() {
        let mut pool = AdjPool::default();
        let mut refs: Vec<ChunkRef> = vec![ChunkRef::default(); 16];
        for round in 0..40u32 {
            for (i, r) in refs.iter_mut().enumerate() {
                pool.insert_at(r, r.len(), NodeId(round * 100 + i as u32));
            }
        }
        for (i, r) in refs.iter().enumerate() {
            let got = ids(&pool, r);
            let want: Vec<u32> = (0..40).map(|round| round * 100 + i as u32).collect();
            assert_eq!(got, want, "list {i} corrupted");
        }
    }

    #[test]
    fn clear_then_regrow_cycles_the_free_lists() {
        let mut pool = AdjPool::default();
        let mut r = ChunkRef::default();
        for _ in 0..3 {
            for v in 0..50u32 {
                let end = r.len();
                pool.insert_at(&mut r, end, NodeId(v));
            }
            pool.clear(&mut r);
        }
        // Steady state: the second and third cycles reuse the first
        // cycle's chunks, so the arena is no bigger than one cycle's
        // growth chain (4 + 8 + 16 + 32 + 64).
        assert_eq!(pool.arena_len(), 4 + 8 + 16 + 32 + 64);
    }

    #[test]
    fn small_lists_spill_past_inline_and_come_home() {
        assert_eq!(std::mem::size_of::<SmallList>(), 16);
        let mut pool = AdjPool::default();
        let mut l = SmallList::EMPTY;
        for v in [5u32, 1, 3] {
            let pos = l.slice(&pool).partition_point(|&x| x.0 < v);
            l.insert_at(&mut pool, pos, NodeId(v));
        }
        assert_eq!(pool.arena_len(), 0, "three values stay inline");
        l.insert_at(&mut pool, 0, NodeId(0));
        assert_eq!(l.len(), 4);
        assert_eq!(pool.arena_len(), 4, "the fourth spills to a class-0 chunk");
        let got: Vec<u32> = l.slice(&pool).iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 1, 3, 5]);
        assert_eq!(l.remove_at(&mut pool, 2), NodeId(3));
        assert_eq!(
            pool.free_chunk_count(),
            1,
            "back to three: the chunk is freed"
        );
        let got: Vec<u32> = l.slice(&pool).iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 1, 5]);
        for v in 6..40u32 {
            l.insert_at(&mut pool, l.len(), NodeId(v));
        }
        assert_eq!(l.len(), 37);
        l.clear(&mut pool);
        assert!(l.is_empty());
        assert_eq!(l.slice(&pool), &[] as &[NodeId]);
    }
}
