//! The scratchpad memory model and its allocation procedure.

use crate::block::{Block, BlockState, TileData};
use crate::policy::SpillPolicy;
use flexer_tiling::TileId;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// How an allocation request was satisfied (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocMethod {
    /// The tile was already resident; nothing changed.
    AlreadyResident,
    /// A dead, equally-sized block was replaced in place.
    InPlace,
    /// A free block was carved with best-fit placement.
    FreeBlock,
    /// Victim blocks were spilled first, then the hole was used.
    AfterSpill,
}

/// One evicted tile, reported so the caller can account the traffic
/// and emit a write-back for dirty data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Eviction {
    /// The evicted tile.
    pub tile: TileId,
    /// Start address of the block it occupied.
    pub address: u64,
    /// Its byte size.
    pub bytes: u64,
    /// Whether the on-chip copy was dirty (needs a write-back).
    pub dirty: bool,
    /// Remaining operand references the tile had (each will cost a
    /// reload).
    pub remain_uses: u32,
}

/// Result of a successful [`SpmMemory::allocate`] call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocOutcome {
    /// How the request was satisfied.
    pub method: AllocMethod,
    /// Start address of the tile's block.
    pub address: u64,
    /// Tiles evicted to make room, in eviction order.
    pub evictions: Vec<Eviction>,
    /// Bytes moved by on-chip compaction when fragmentation (typically
    /// pinned islands) defeated the spill policy. Zero in the common
    /// case.
    pub compaction_bytes: u64,
    /// Exactly which tiles compaction relocated (empty in the common
    /// case).
    pub compaction_moves: Vec<TileMove>,
}

/// Error returned when an allocation cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The request exceeds the total scratchpad capacity.
    TileTooLarge {
        /// Requested bytes.
        requested: u64,
        /// Scratchpad capacity.
        capacity: u64,
    },
    /// No spill-victim selection can free a sufficient contiguous
    /// region (e.g. too much memory is pinned).
    InsufficientMemory {
        /// Requested bytes.
        requested: u64,
        /// Bytes currently free (possibly fragmented).
        free: u64,
    },
    /// The requested size was zero.
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::TileTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "tile of {requested} bytes exceeds scratchpad capacity of {capacity} bytes"
            ),
            AllocError::InsufficientMemory { requested, free } => write!(
                f,
                "cannot free a contiguous {requested}-byte region ({free} bytes free)"
            ),
            AllocError::ZeroSize => write!(f, "allocation size must be positive"),
        }
    }
}

impl Error for AllocError {}

/// One tile relocated by [`SpmMemory::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileMove {
    /// The relocated tile.
    pub tile: TileId,
    /// Its byte size.
    pub bytes: u64,
    /// Address before compaction.
    pub from: u64,
    /// Address after compaction.
    pub to: u64,
}

/// Aggregate occupancy statistics of the scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemSnapshot {
    /// Bytes currently allocated.
    pub used_bytes: u64,
    /// Bytes currently free.
    pub free_bytes: u64,
    /// Number of disjoint free regions.
    pub free_fragments: usize,
    /// Size of the largest free region.
    pub largest_free: u64,
    /// Allocated fraction in `[0, 1]`.
    pub utilization: f64,
}

/// One reversible mutation of the block map, recorded while a
/// transaction ([`SpmMemory::checkpoint`]) is active.
///
/// Entries are undone strictly last-in-first-out, so every stored
/// index is valid at the moment its entry is undone: later mutations
/// (and their index shifts) have already been reverted.
#[derive(Debug, Clone)]
enum JournalEntry {
    /// Block `index` previously held `old` (state-only change: evict,
    /// in-place replace, exact-fit placement, pin/dirty/use updates).
    State {
        /// Block index at mutation time.
        index: usize,
        /// The overwritten state.
        old: BlockState,
    },
    /// Free block `index` was split by a placement: it now holds the
    /// allocation and a free remainder was inserted at `index + 1`.
    SplitPlace {
        /// Block index at mutation time.
        index: usize,
        /// The original (larger) free block.
        old: Block,
    },
    /// Free block `index` absorbed its free right neighbour of `size`
    /// bytes during coalescing.
    Absorb {
        /// Surviving block index.
        index: usize,
        /// Size of the removed neighbour.
        size: u64,
    },
    /// Whole-map snapshot taken before a structural rewrite
    /// (compaction). Rare: only when fragmentation defeats the spill
    /// policy inside a transaction.
    Snapshot {
        /// The complete pre-rewrite block map.
        blocks: Vec<Block>,
    },
}

impl JournalEntry {
    /// Approximate heap bytes this entry cost to record, used for the
    /// rollback-vs-clone accounting in scheduler statistics.
    fn cost_bytes(&self) -> u64 {
        let base = std::mem::size_of::<JournalEntry>() as u64;
        match self {
            JournalEntry::Snapshot { blocks } => {
                base + (blocks.len() * std::mem::size_of::<Block>()) as u64
            }
            _ => base,
        }
    }
}

/// A transaction token returned by [`SpmMemory::checkpoint`].
///
/// Pass it back to [`SpmMemory::rollback`] to undo every mutation made
/// since, or to [`SpmMemory::commit`] to keep them. Tokens must be
/// resolved in LIFO order when transactions nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a checkpoint must be resolved by rollback() or commit()"]
pub struct Checkpoint {
    mark: usize,
}

/// The shared on-chip global buffer as an address-ordered block map
/// (paper §4.1).
///
/// The block list always covers `[0, capacity)` exactly, contains no
/// zero-sized blocks and no two adjacent free blocks, and holds each
/// tile at most once. These invariants are property-tested.
///
/// # Transactions
///
/// [`SpmMemory::checkpoint`] opens an undo scope: every subsequent
/// mutation is recorded in an internal journal and can be reverted
/// with [`SpmMemory::rollback`], or made permanent with
/// [`SpmMemory::commit`]. This lets a scheduler *plan* a candidate
/// operation set directly on its live scratchpad and discard the plan
/// in `O(mutations)` instead of deep-cloning the block map per
/// candidate. Outside a transaction the journal is inactive and
/// mutations carry no extra cost.
///
/// # Examples
///
/// ```
/// use flexer_spm::{FlexerSpill, SpmMemory};
/// use flexer_tiling::TileId;
///
/// let mut spm = SpmMemory::new(256);
/// let a = TileId::Input { c: 0, s: 0 };
/// let b = TileId::Weight { k: 0, c: 0 };
/// spm.allocate(a, 128, 1, &FlexerSpill)?;
/// spm.allocate(b, 128, 1, &FlexerSpill)?;
/// assert_eq!(spm.free_bytes(), 0);
///
/// // `a` is dead after its last use; a same-sized tile replaces it
/// // in place.
/// spm.set_remain_uses(a, 0);
/// let c = TileId::Input { c: 1, s: 0 };
/// let outcome = spm.allocate(c, 128, 1, &FlexerSpill)?;
/// assert_eq!(outcome.method, flexer_spm::AllocMethod::InPlace);
/// # Ok::<(), flexer_spm::AllocError>(())
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct SpmMemory {
    capacity: u64,
    blocks: Vec<Block>,
    /// Undo journal; only populated while `tx_depth > 0`.
    journal: Vec<JournalEntry>,
    /// Number of open (un-resolved) checkpoints.
    tx_depth: usize,
}

/// A clone is a fresh snapshot of the block map: it does not inherit
/// the source's open transactions or journal.
impl Clone for SpmMemory {
    fn clone(&self) -> Self {
        Self {
            capacity: self.capacity,
            blocks: self.blocks.clone(),
            journal: Vec::new(),
            tx_depth: 0,
        }
    }
}

/// Equality is over the observable memory state (capacity and block
/// map); transaction bookkeeping is ignored, so a transactional
/// scratchpad compares equal to a plain clone of the same state.
impl PartialEq for SpmMemory {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.blocks == other.blocks
    }
}

impl SpmMemory {
    /// Creates an empty scratchpad of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "scratchpad capacity must be positive");
        Self {
            capacity,
            blocks: vec![Block::new(0, capacity, BlockState::Free)],
            journal: Vec::new(),
            tx_depth: 0,
        }
    }

    /// Opens a transaction: every mutation until the matching
    /// [`SpmMemory::rollback`] or [`SpmMemory::commit`] is journaled
    /// and reversible. Transactions nest; tokens must be resolved in
    /// LIFO order.
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.tx_depth += 1;
        Checkpoint {
            mark: self.journal.len(),
        }
    }

    /// Reverts every mutation recorded since `token` was issued and
    /// closes that transaction. Returns the approximate journal bytes
    /// undone (for rollback-vs-clone accounting).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open or `token` is out of order.
    pub fn rollback(&mut self, token: Checkpoint) -> u64 {
        assert!(self.tx_depth > 0, "rollback without an open checkpoint");
        assert!(
            token.mark <= self.journal.len(),
            "checkpoint resolved out of LIFO order"
        );
        let mut undone = 0u64;
        while self.journal.len() > token.mark {
            let entry = self.journal.pop().expect("journal length checked");
            undone += entry.cost_bytes();
            self.undo(entry);
        }
        self.tx_depth -= 1;
        undone
    }

    /// Closes the transaction opened by `token`, keeping its
    /// mutations. Once the outermost transaction commits, the journal
    /// is discarded.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open or `token` is out of order.
    pub fn commit(&mut self, token: Checkpoint) {
        assert!(self.tx_depth > 0, "commit without an open checkpoint");
        assert!(
            token.mark <= self.journal.len(),
            "checkpoint resolved out of LIFO order"
        );
        self.tx_depth -= 1;
        if self.tx_depth == 0 {
            self.journal.clear();
        }
    }

    /// Whether a transaction is currently open.
    #[must_use]
    pub fn in_transaction(&self) -> bool {
        self.tx_depth > 0
    }

    /// Number of journal entries currently recorded.
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Approximate heap footprint of the block map — the bytes a
    /// deep clone of this scratchpad would copy.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        (self.blocks.len() * std::mem::size_of::<Block>()) as u64
    }

    /// Records `entry` if a transaction is active.
    #[inline]
    fn record(&mut self, entry: JournalEntry) {
        if self.tx_depth > 0 {
            self.journal.push(entry);
        }
    }

    /// Reverts a single journal entry. Only sound when applied in
    /// strict LIFO order (see [`JournalEntry`]): the block's index at
    /// undo time matches that at mutation time.
    fn undo(&mut self, entry: JournalEntry) {
        match entry {
            JournalEntry::State { index, old } => {
                *self.blocks[index].state_mut() = old;
            }
            JournalEntry::SplitPlace { index, old } => {
                self.blocks.remove(index + 1);
                self.blocks[index] = old;
            }
            JournalEntry::Absorb { index, size } => {
                let shrunk = self.blocks[index].size() - size;
                self.blocks[index].set_size(shrunk);
                let start = self.blocks[index].start() + shrunk;
                self.blocks
                    .insert(index + 1, Block::new(start, size, BlockState::Free));
            }
            JournalEntry::Snapshot { blocks } => {
                self.blocks = blocks;
            }
        }
    }

    /// Overwrites the state of block `i`, journaling the old state.
    fn set_state(&mut self, i: usize, state: BlockState) {
        let old = *self.blocks[i].state();
        self.record(JournalEntry::State { index: i, old });
        *self.blocks[i].state_mut() = state;
    }

    /// Total capacity in bytes.
    #[must_use]
    pub const fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The address-ordered block map.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Bytes currently free (may be fragmented).
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.is_free())
            .map(Block::size)
            .sum()
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.capacity - self.free_bytes()
    }

    /// Allocated fraction in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.used_bytes() as f64 / self.capacity as f64
    }

    /// Occupancy statistics.
    #[must_use]
    pub fn snapshot(&self) -> MemSnapshot {
        let free: Vec<u64> = self
            .blocks
            .iter()
            .filter(|b| b.is_free())
            .map(Block::size)
            .collect();
        let free_bytes: u64 = free.iter().sum();
        MemSnapshot {
            used_bytes: self.capacity - free_bytes,
            free_bytes,
            free_fragments: free.len(),
            largest_free: free.iter().copied().max().unwrap_or(0),
            utilization: (self.capacity - free_bytes) as f64 / self.capacity as f64,
        }
    }

    /// Index of the block holding `tile`, if resident: one scan of
    /// the block map. The map is short (tens of blocks), so the scan
    /// costs less than keeping a tile index in sync through every
    /// mutation and undo.
    fn find_index(&self, tile: TileId) -> Option<usize> {
        self.blocks
            .iter()
            .position(|b| b.state().tile_data().is_some_and(|d| d.tile == tile))
    }

    /// Whether `tile` is resident.
    #[must_use]
    pub fn contains(&self, tile: TileId) -> bool {
        self.find_index(tile).is_some()
    }

    /// Start address of the block holding `tile`, if resident.
    #[must_use]
    pub fn address_of(&self, tile: TileId) -> Option<u64> {
        self.find_index(tile).map(|i| self.blocks[i].start())
    }

    /// Residency metadata of `tile`, if resident.
    #[must_use]
    pub fn tile_data(&self, tile: TileId) -> Option<&TileData> {
        self.find_index(tile)
            .and_then(|i| self.blocks[i].state().tile_data())
    }

    fn tile_data_mut(&mut self, tile: TileId) -> Option<&mut TileData> {
        let i = self.find_index(tile)?;
        // Journal the whole pre-mutation state: the caller receives a
        // mutable handle, so any field may change.
        let old = *self.blocks[i].state();
        self.record(JournalEntry::State { index: i, old });
        match self.blocks[i].state_mut() {
            BlockState::Free => None,
            BlockState::Allocated(data) => Some(data),
        }
    }

    /// Sets the remaining-use count of a resident tile. Returns whether
    /// the tile was resident.
    pub fn set_remain_uses(&mut self, tile: TileId, uses: u32) -> bool {
        if let Some(d) = self.tile_data_mut(tile) {
            d.remain_uses = uses;
            true
        } else {
            false
        }
    }

    /// Decrements (saturating) the remaining-use count of a resident
    /// tile. Returns whether the tile was resident.
    pub fn decrement_uses(&mut self, tile: TileId) -> bool {
        if let Some(d) = self.tile_data_mut(tile) {
            d.remain_uses = d.remain_uses.saturating_sub(1);
            true
        } else {
            false
        }
    }

    /// Sets the dirty bit of a resident tile. Returns whether the tile
    /// was resident.
    pub fn set_dirty(&mut self, tile: TileId, dirty: bool) -> bool {
        if let Some(d) = self.tile_data_mut(tile) {
            d.dirty = dirty;
            true
        } else {
            false
        }
    }

    /// Pins a resident tile so it cannot be spilled. Returns whether
    /// the tile was resident.
    pub fn pin(&mut self, tile: TileId) -> bool {
        if let Some(d) = self.tile_data_mut(tile) {
            d.pinned = true;
            true
        } else {
            false
        }
    }

    /// Clears every pin.
    pub fn unpin_all(&mut self) {
        for i in 0..self.blocks.len() {
            if self.blocks[i].state().tile_data().is_some_and(|d| d.pinned) {
                let old = *self.blocks[i].state();
                self.record(JournalEntry::State { index: i, old });
                if let BlockState::Allocated(d) = self.blocks[i].state_mut() {
                    d.pinned = false;
                }
            }
        }
    }

    /// Evicts a resident tile, freeing its block. Returns the eviction
    /// record, or `None` if the tile was not resident.
    pub fn evict(&mut self, tile: TileId) -> Option<Eviction> {
        let i = self.find_index(tile)?;
        let ev = self.evict_index(i);
        self.coalesce();
        ev
    }

    /// Marks block `i` free and returns its eviction record (if it was
    /// allocated). Does not coalesce.
    fn evict_index(&mut self, i: usize) -> Option<Eviction> {
        let size = self.blocks[i].size();
        match *self.blocks[i].state() {
            BlockState::Free => None,
            BlockState::Allocated(data) => {
                debug_assert!(!data.pinned, "must not evict pinned tile {}", data.tile);
                let address = self.blocks[i].start();
                self.set_state(i, BlockState::Free);
                Some(Eviction {
                    tile: data.tile,
                    address,
                    bytes: size,
                    dirty: data.dirty,
                    remain_uses: data.remain_uses,
                })
            }
        }
    }

    /// Merges adjacent free blocks in place (no reallocation), one
    /// journaled absorption per merged pair.
    fn coalesce(&mut self) {
        let mut i = 0;
        while i + 1 < self.blocks.len() {
            if self.blocks[i].is_free() && self.blocks[i + 1].is_free() {
                let absorbed = self.blocks.remove(i + 1);
                let grown = self.blocks[i].size() + absorbed.size();
                self.blocks[i].set_size(grown);
                self.record(JournalEntry::Absorb {
                    index: i,
                    size: absorbed.size(),
                });
            } else {
                i += 1;
            }
        }
    }

    /// Index of the best-fit free block for `size`: the smallest free
    /// block that fits, lowest address on ties.
    fn best_fit_index(&self, size: u64) -> Option<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_free() && b.size() >= size)
            .min_by_key(|(i, b)| (b.size(), *i))
            .map(|(i, _)| i)
    }

    /// Places `data` into free block `i`, splitting off the remainder.
    fn place_in_free(&mut self, i: usize, size: u64, data: TileData) -> u64 {
        let block = self.blocks[i];
        debug_assert!(block.is_free() && block.size() >= size);
        let address = block.start();
        if block.size() == size {
            self.set_state(i, BlockState::Allocated(data));
        } else {
            self.record(JournalEntry::SplitPlace {
                index: i,
                old: block,
            });
            let rest = Block::new(address + size, block.size() - size, BlockState::Free);
            self.blocks[i] = Block::new(address, size, BlockState::Allocated(data));
            self.blocks.insert(i + 1, rest);
        }
        address
    }

    /// Allocates `size` bytes for `tile`, following the paper's §4.1
    /// procedure: in-place replacement of a dead equal-sized block
    /// first, then best-fit placement in a free block, then spilling
    /// victims chosen by `policy`.
    ///
    /// The new tile starts clean and unpinned with `remain_uses`
    /// remaining references. If the tile is already resident the call
    /// is a no-op reporting [`AllocMethod::AlreadyResident`].
    ///
    /// # Errors
    ///
    /// * [`AllocError::ZeroSize`] for `size == 0`;
    /// * [`AllocError::TileTooLarge`] if `size` exceeds the capacity;
    /// * [`AllocError::InsufficientMemory`] if `policy` cannot free a
    ///   sufficient contiguous region (for instance because too many
    ///   tiles are pinned).
    pub fn allocate(
        &mut self,
        tile: TileId,
        size: u64,
        remain_uses: u32,
        policy: &dyn SpillPolicy,
    ) -> Result<AllocOutcome, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if size > self.capacity {
            return Err(AllocError::TileTooLarge {
                requested: size,
                capacity: self.capacity,
            });
        }
        if let Some(i) = self.find_index(tile) {
            return Ok(AllocOutcome {
                method: AllocMethod::AlreadyResident,
                address: self.blocks[i].start(),
                evictions: Vec::new(),
                compaction_bytes: 0,
                compaction_moves: Vec::new(),
            });
        }
        let data = TileData {
            tile,
            remain_uses,
            dirty: false,
            pinned: false,
        };

        // 1. In-place replacement of a dead, equally-sized block.
        let in_place = self.blocks.iter().position(|b| {
            b.size() == size
                && b.state()
                    .tile_data()
                    .is_some_and(|d| d.remain_uses == 0 && !d.pinned)
        });
        if let Some(i) = in_place {
            let eviction = self.evict_index(i).expect("block is allocated");
            self.set_state(i, BlockState::Allocated(data));
            return Ok(AllocOutcome {
                method: AllocMethod::InPlace,
                address: self.blocks[i].start(),
                evictions: vec![eviction],
                compaction_bytes: 0,
                compaction_moves: Vec::new(),
            });
        }

        // 2. Best-fit placement in a free block.
        if let Some(i) = self.best_fit_index(size) {
            let address = self.place_in_free(i, size, data);
            return Ok(AllocOutcome {
                method: AllocMethod::FreeBlock,
                address,
                evictions: Vec::new(),
                compaction_bytes: 0,
                compaction_moves: Vec::new(),
            });
        }

        // 3. Spill victims chosen by the policy. If fragmentation
        // (typically pinned islands) defeats the policy, compact once
        // and retry — afterwards all spillable space is contiguous.
        let mut compaction_moves = Vec::new();
        let victims = match policy.select_victims(self, size) {
            Some(v) => v,
            None => {
                compaction_moves = self.compact_with_moves();
                let compaction_bytes = compaction_moves.iter().map(|m| m.bytes).sum();
                if let Some(i) = self.best_fit_index(size) {
                    let address = self.place_in_free(i, size, data);
                    return Ok(AllocOutcome {
                        method: AllocMethod::AfterSpill,
                        address,
                        evictions: Vec::new(),
                        compaction_bytes,
                        compaction_moves,
                    });
                }
                policy
                    .select_victims(self, size)
                    .ok_or(AllocError::InsufficientMemory {
                        requested: size,
                        free: self.free_bytes(),
                    })?
            }
        };
        let mut evictions = Vec::with_capacity(victims.len());
        let mut sorted = victims;
        sorted.sort_unstable();
        sorted.dedup();
        for &i in sorted.iter().rev() {
            if let Some(ev) = self.evict_index(i) {
                evictions.push(ev);
            }
        }
        evictions.reverse();
        self.coalesce();
        let i = self
            .best_fit_index(size)
            .expect("spill policy must free a sufficient contiguous region");
        let address = self.place_in_free(i, size, data);
        Ok(AllocOutcome {
            method: AllocMethod::AfterSpill,
            address,
            evictions,
            compaction_bytes: compaction_moves.iter().map(|m| m.bytes).sum(),
            compaction_moves,
        })
    }

    /// Compacts the scratchpad: packs every allocated block to the
    /// lowest addresses — pinned blocks first, then the rest in
    /// address order — leaving one contiguous free region at the top.
    /// Returns the number of bytes that had to move (the on-chip copy
    /// cost a real system would pay).
    ///
    /// Compaction is the last resort when pinned tiles fragment the
    /// buffer so badly that no spill-victim selection can produce a
    /// sufficient hole. Segregating the pinned blocks guarantees that
    /// afterwards all spillable space (unpinned blocks plus the free
    /// region) is contiguous, so any request up to
    /// `capacity - pinned bytes` can be satisfied.
    pub fn compact(&mut self) -> u64 {
        self.compact_with_moves().iter().map(|m| m.bytes).sum()
    }

    /// [`SpmMemory::compact`], reporting exactly which tiles moved
    /// where — the information a code generator needs to emit the
    /// corresponding on-chip copy commands.
    pub fn compact_with_moves(&mut self) -> Vec<TileMove> {
        if self.tx_depth > 0 {
            // Structural rewrite: journal the whole pre-compaction map.
            self.record(JournalEntry::Snapshot {
                blocks: self.blocks.clone(),
            });
        }
        let mut allocated: Vec<Block> = self.blocks.drain(..).filter(|b| !b.is_free()).collect();
        allocated.sort_by_key(|b| {
            let pinned = b.state().tile_data().is_some_and(|d| d.pinned);
            (!pinned, b.start())
        });
        let mut moves = Vec::new();
        let mut cursor = 0u64;
        let mut packed: Vec<Block> = Vec::with_capacity(allocated.len() + 1);
        for block in allocated {
            if block.start() != cursor {
                let tile = block
                    .state()
                    .tile_data()
                    .expect("allocated blocks hold tiles")
                    .tile;
                moves.push(TileMove {
                    tile,
                    bytes: block.size(),
                    from: block.start(),
                    to: cursor,
                });
            }
            packed.push(Block::new(cursor, block.size(), *block.state()));
            cursor += block.size();
        }
        if cursor < self.capacity {
            packed.push(Block::new(cursor, self.capacity - cursor, BlockState::Free));
        }
        self.blocks = packed;
        moves
    }

    /// Checks the structural invariants of the block map. Used by
    /// tests; cheap enough to call in debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) {
        assert!(!self.blocks.is_empty());
        assert_eq!(self.blocks[0].start(), 0, "map must start at 0");
        let mut tiles = std::collections::BTreeSet::new();
        for (i, b) in self.blocks.iter().enumerate() {
            assert!(b.size() > 0, "zero-sized block at {i}");
            if i + 1 < self.blocks.len() {
                assert_eq!(
                    b.end(),
                    self.blocks[i + 1].start(),
                    "gap or overlap after block {i}"
                );
                assert!(
                    !(b.is_free() && self.blocks[i + 1].is_free()),
                    "uncoalesced free blocks at {i}"
                );
            }
            if let Some(d) = b.state().tile_data() {
                assert!(tiles.insert(d.tile), "tile {} resident twice", d.tile);
            }
        }
        assert_eq!(
            self.blocks.last().unwrap().end(),
            self.capacity,
            "map must cover the whole capacity"
        );
    }
}

impl fmt::Display for SpmMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SPM {}B, {:.0}% used:",
            self.capacity,
            self.utilization() * 100.0
        )?;
        for b in &self.blocks {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FlexerSpill;

    fn t(n: u32) -> TileId {
        TileId::Input { c: n, s: 0 }
    }

    fn filled() -> SpmMemory {
        // Four 64-byte tiles filling a 256-byte scratchpad.
        let mut spm = SpmMemory::new(256);
        for i in 0..4 {
            spm.allocate(t(i), 64, 2, &FlexerSpill).unwrap();
        }
        spm.assert_invariants();
        spm
    }

    #[test]
    fn fresh_memory_is_one_free_block() {
        let spm = SpmMemory::new(1024);
        assert_eq!(spm.blocks().len(), 1);
        assert_eq!(spm.free_bytes(), 1024);
        assert_eq!(spm.used_bytes(), 0);
        spm.assert_invariants();
    }

    #[test]
    fn sequential_allocation_packs_from_zero() {
        let spm = filled();
        let starts: Vec<u64> = spm.blocks().iter().map(Block::start).collect();
        assert_eq!(starts, [0, 64, 128, 192]);
        assert_eq!(spm.utilization(), 1.0);
    }

    #[test]
    fn already_resident_is_a_no_op() {
        let mut spm = filled();
        let outcome = spm.allocate(t(0), 64, 9, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::AlreadyResident);
        assert!(outcome.evictions.is_empty());
        // remain_uses untouched by the no-op.
        assert_eq!(spm.tile_data(t(0)).unwrap().remain_uses, 2);
    }

    #[test]
    fn in_place_replacement_of_dead_block() {
        let mut spm = filled();
        spm.set_remain_uses(t(2), 0);
        let outcome = spm.allocate(t(9), 64, 3, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::InPlace);
        assert_eq!(outcome.address, 128);
        assert_eq!(outcome.evictions.len(), 1);
        assert_eq!(outcome.evictions[0].tile, t(2));
        assert!(!spm.contains(t(2)));
        assert!(spm.contains(t(9)));
        spm.assert_invariants();
    }

    #[test]
    fn in_place_requires_exact_size_and_death() {
        let mut spm = filled();
        // Alive blocks are not replaced in place; spilling happens.
        let outcome = spm.allocate(t(9), 64, 1, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::AfterSpill);
        spm.assert_invariants();
    }

    #[test]
    fn best_fit_prefers_smallest_hole() {
        let mut spm = SpmMemory::new(256);
        spm.allocate(t(0), 64, 1, &FlexerSpill).unwrap();
        spm.allocate(t(1), 32, 1, &FlexerSpill).unwrap();
        spm.allocate(t(2), 160, 1, &FlexerSpill).unwrap();
        // Free the 64B and 160B blocks -> holes of 64 and 160.
        spm.evict(t(0));
        spm.evict(t(2));
        spm.assert_invariants();
        let outcome = spm.allocate(t(3), 48, 1, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::FreeBlock);
        // Best fit picks the 64-byte hole at address 0, not the 160er.
        assert_eq!(outcome.address, 0);
        spm.assert_invariants();
    }

    #[test]
    fn eviction_coalesces_neighbours() {
        let mut spm = filled();
        spm.evict(t(1));
        spm.evict(t(2));
        // Two adjacent frees merged into one 128-byte hole.
        let frees: Vec<_> = spm.blocks().iter().filter(|b| b.is_free()).collect();
        assert_eq!(frees.len(), 1);
        assert_eq!(frees[0].size(), 128);
        spm.assert_invariants();
    }

    #[test]
    fn pinned_tiles_survive_spilling() {
        let mut spm = filled();
        spm.pin(t(0));
        spm.pin(t(1));
        let outcome = spm.allocate(t(9), 128, 1, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::AfterSpill);
        assert!(spm.contains(t(0)));
        assert!(spm.contains(t(1)));
        assert!(!spm.contains(t(2)));
        assert!(!spm.contains(t(3)));
        spm.assert_invariants();
    }

    #[test]
    fn fully_pinned_memory_reports_insufficient() {
        let mut spm = filled();
        for i in 0..4 {
            spm.pin(t(i));
        }
        let err = spm.allocate(t(9), 64, 1, &FlexerSpill).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientMemory { .. }));
    }

    #[test]
    fn oversized_and_zero_requests_rejected() {
        let mut spm = SpmMemory::new(128);
        assert!(matches!(
            spm.allocate(t(0), 129, 1, &FlexerSpill),
            Err(AllocError::TileTooLarge { .. })
        ));
        assert!(matches!(
            spm.allocate(t(0), 0, 1, &FlexerSpill),
            Err(AllocError::ZeroSize)
        ));
    }

    #[test]
    fn use_count_tracking() {
        let mut spm = filled();
        assert!(spm.decrement_uses(t(0)));
        assert_eq!(spm.tile_data(t(0)).unwrap().remain_uses, 1);
        assert!(spm.decrement_uses(t(0)));
        assert!(spm.decrement_uses(t(0))); // saturates at 0
        assert_eq!(spm.tile_data(t(0)).unwrap().remain_uses, 0);
        assert!(!spm.decrement_uses(t(9)));
    }

    #[test]
    fn dirty_bit_round_trip() {
        let mut spm = filled();
        assert!(!spm.tile_data(t(0)).unwrap().dirty);
        spm.set_dirty(t(0), true);
        assert!(spm.tile_data(t(0)).unwrap().dirty);
        let ev = spm.evict(t(0)).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn unpin_all_clears_every_pin() {
        let mut spm = filled();
        spm.pin(t(0));
        spm.pin(t(3));
        spm.unpin_all();
        for i in 0..4 {
            assert!(!spm.tile_data(t(i)).unwrap().pinned);
        }
    }

    #[test]
    fn snapshot_reports_fragmentation() {
        let mut spm = filled();
        spm.evict(t(0));
        spm.evict(t(2));
        let snap = spm.snapshot();
        assert_eq!(snap.free_bytes, 128);
        assert_eq!(snap.free_fragments, 2);
        assert_eq!(snap.largest_free, 64);
        assert_eq!(snap.used_bytes, 128);
        assert!((snap.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpmMemory::new(0);
    }

    #[test]
    fn compaction_consolidates_free_space() {
        let mut spm = filled();
        spm.evict(t(0));
        spm.evict(t(2));
        // Fragmented: two 64-byte holes; a 128-byte request has no
        // contiguous home.
        assert_eq!(spm.snapshot().largest_free, 64);
        let moved = spm.compact();
        // t(1) slides from 64 to 0, t(3) from 192 to 64.
        assert_eq!(moved, 128);
        spm.assert_invariants();
        assert_eq!(spm.snapshot().largest_free, 128);
        assert_eq!(spm.snapshot().free_fragments, 1);
        assert!(spm.contains(t(1)));
        assert!(spm.contains(t(3)));
        // Idempotent: nothing left to move.
        assert_eq!(spm.compact(), 0);
        spm.assert_invariants();
    }

    #[test]
    fn compaction_preserves_and_segregates_pinned_tiles() {
        let mut spm = filled();
        spm.pin(t(3));
        spm.evict(t(0));
        let moved = spm.compact();
        assert!(moved > 0);
        assert!(spm.tile_data(t(3)).unwrap().pinned);
        // The pinned block is packed to the bottom so every spillable
        // byte is contiguous above it.
        let first = &spm.blocks()[0];
        assert_eq!(first.start(), 0);
        assert_eq!(
            first.state().tile_data().map(|d| d.tile),
            Some(t(3)),
            "pinned tile must lead the packed layout"
        );
        spm.assert_invariants();
    }

    #[test]
    fn compaction_makes_unpinned_space_fully_allocatable() {
        // Pinned islands between unpinned tiles: after compaction a
        // request for all unpinned + free space must succeed.
        let mut spm = filled(); // 4 x 64 B
        spm.pin(t(1)); // island in the middle
        spm.evict(t(0));
        // Free 64 at 0, pinned t1 at 64, t2/t3 spillable above.
        let outcome = spm.allocate(t(9), 192, 1, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::AfterSpill);
        assert!(spm.contains(t(9)));
        assert!(spm.contains(t(1)));
        spm.assert_invariants();
    }

    #[test]
    fn display_renders_block_map() {
        let mut spm = SpmMemory::new(256);
        spm.allocate(t(0), 64, 2, &FlexerSpill).unwrap();
        spm.set_dirty(t(0), true);
        let s = spm.to_string();
        assert!(s.contains("SPM 256B"));
        assert!(s.contains("dirty"));
        assert!(s.contains("free"));
    }

    #[test]
    fn alloc_outcome_reports_compaction_bytes() {
        // Pinned island forces the allocator to compact.
        let mut spm = filled();
        spm.pin(t(1));
        spm.evict(t(0));
        let outcome = spm.allocate(t(9), 192, 1, &FlexerSpill).unwrap();
        assert!(outcome.compaction_bytes > 0);
        spm.assert_invariants();
    }

    #[test]
    fn rollback_reverts_allocation_spill_and_metadata() {
        let mut spm = filled();
        spm.set_dirty(t(1), true);
        let oracle = spm.clone();

        let token = spm.checkpoint();
        // Spill path: full memory, new 128-byte tile evicts victims.
        let outcome = spm.allocate(t(9), 128, 3, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::AfterSpill);
        spm.pin(t(9));
        spm.set_dirty(t(9), true);
        spm.decrement_uses(t(9));
        spm.evict(t(0));
        spm.unpin_all();
        spm.assert_invariants();
        assert_ne!(spm, oracle);

        let undone = spm.rollback(token);
        assert!(undone > 0);
        spm.assert_invariants();
        assert_eq!(spm, oracle);
        assert!(!spm.in_transaction());
        assert_eq!(spm.journal_len(), 0);
    }

    #[test]
    fn rollback_reverts_in_place_replacement() {
        let mut spm = filled();
        spm.set_remain_uses(t(2), 0);
        let oracle = spm.clone();
        let token = spm.checkpoint();
        let outcome = spm.allocate(t(9), 64, 3, &FlexerSpill).unwrap();
        assert_eq!(outcome.method, AllocMethod::InPlace);
        spm.rollback(token);
        assert_eq!(spm, oracle);
        spm.assert_invariants();
    }

    #[test]
    fn rollback_reverts_split_placement_and_coalesce() {
        let mut spm = SpmMemory::new(256);
        spm.allocate(t(0), 64, 1, &FlexerSpill).unwrap();
        spm.allocate(t(1), 64, 1, &FlexerSpill).unwrap();
        spm.evict(t(0)); // free 64 at 0 + free 128 at 128
        let oracle = spm.clone();
        let token = spm.checkpoint();
        // Split the 128-byte tail hole.
        spm.allocate(t(2), 96, 1, &FlexerSpill).unwrap();
        // Evicting t(1) coalesces three ways.
        spm.evict(t(1));
        spm.rollback(token);
        assert_eq!(spm, oracle);
        spm.assert_invariants();
    }

    #[test]
    fn rollback_reverts_compaction() {
        let mut spm = filled();
        spm.pin(t(1)); // pinned island defeats the spill policy
        spm.evict(t(0));
        let oracle = spm.clone();
        let token = spm.checkpoint();
        let outcome = spm.allocate(t(9), 192, 1, &FlexerSpill).unwrap();
        assert!(outcome.compaction_bytes > 0, "compaction path not taken");
        spm.rollback(token);
        assert_eq!(spm, oracle);
        spm.assert_invariants();
    }

    #[test]
    fn commit_keeps_mutations_and_clears_journal() {
        let mut spm = filled();
        let token = spm.checkpoint();
        spm.evict(t(0));
        spm.pin(t(1));
        spm.commit(token);
        assert!(!spm.contains(t(0)));
        assert!(spm.tile_data(t(1)).unwrap().pinned);
        assert!(!spm.in_transaction());
        assert_eq!(spm.journal_len(), 0);
        spm.assert_invariants();
    }

    #[test]
    fn nested_transactions_roll_back_independently() {
        let mut spm = filled();
        let outer = spm.checkpoint();
        spm.evict(t(0));
        let after_outer_op = spm.clone();
        let inner = spm.checkpoint();
        spm.evict(t(1));
        spm.rollback(inner);
        assert_eq!(spm, after_outer_op);
        // Inner commit/rollback must not have erased outer entries.
        let pristine = filled();
        spm.rollback(outer);
        assert_eq!(spm, pristine);
        spm.assert_invariants();
    }

    #[test]
    fn clone_does_not_inherit_transaction_state() {
        let mut spm = filled();
        let token = spm.checkpoint();
        spm.evict(t(0));
        let copy = spm.clone();
        assert!(!copy.in_transaction());
        assert_eq!(copy.journal_len(), 0);
        assert_eq!(copy, spm);
        spm.rollback(token);
        assert_ne!(copy, spm);
    }

    #[test]
    fn mutations_outside_transactions_do_not_journal() {
        let mut spm = filled();
        spm.evict(t(0));
        spm.pin(t(1));
        spm.allocate(t(9), 64, 1, &FlexerSpill).unwrap();
        assert_eq!(spm.journal_len(), 0);
    }

    #[test]
    #[should_panic(expected = "rollback without an open checkpoint")]
    fn rollback_without_checkpoint_panics() {
        let mut spm = SpmMemory::new(64);
        let token = {
            let t = spm.checkpoint();
            spm.commit(t);
            t
        };
        let _ = spm.rollback(token);
    }

    #[test]
    fn footprint_tracks_block_count() {
        let spm = filled();
        assert_eq!(
            spm.footprint_bytes(),
            std::mem::size_of_val(spm.blocks()) as u64
        );
    }

    #[test]
    fn compaction_of_full_or_empty_memory_is_a_no_op() {
        let mut full = filled();
        assert_eq!(full.compact(), 0);
        full.assert_invariants();
        let mut empty = SpmMemory::new(256);
        assert_eq!(empty.compact(), 0);
        empty.assert_invariants();
        assert_eq!(empty.free_bytes(), 256);
    }
}
