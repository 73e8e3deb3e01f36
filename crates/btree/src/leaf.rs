//! Leaf-page codecs: the plain slotted format plus an opt-in
//! prefix-compressed encoding, unified behind [`LeafView`].
//!
//! The prefix format shares each key's common prefix with its predecessor
//! (LevelDB-style) and keeps a **restart point** every `restart_interval`
//! entries where the full key is stored, so in-page search stays
//! logarithmic: binary search over the restart keys, then a short linear
//! decode inside one restart block.
//!
//! ```text
//! Prefix leaf:  [base_ordinal | FLAG  u64][count u16][restart_interval u16]
//!               [restart slot u32 × ceil(count / restart_interval)]
//!               heap, per entry:
//!                 at a restart:  [klen varint][key][vlen varint][value]
//!                 otherwise:     [shared varint][suffix_len varint][suffix]
//!                                [vlen varint][value]
//! ```
//!
//! Bit 63 of the base-ordinal word distinguishes the two encodings, so a
//! reader detects the format per page and mixed-encoding trees (old
//! components plus new flushes) need no migration. Plain pages are written
//! byte-for-byte as before; ordinals never approach `2^62`, so bit 62 is
//! unused and [`LeafView::parse`] rejects a page that sets it.

use crate::encoding::{get_slice, get_varint, put_slice, put_varint, slice_len, varint_len};
use crate::page::{LeafPage, LeafPageBuilder};
use lsm_common::{Error, Result};
use lsm_storage::LeafEncoding;
use std::borrow::Cow;

/// Bit 63 of the base-ordinal word marks a prefix-compressed leaf.
const PREFIX_FLAG: u64 = 1 << 63;

/// Bit 62 of the base-ordinal word: no encoding sets it.
const RESERVED_FLAG: u64 = 1 << 62;

/// Prefix-leaf header: flagged base_ordinal (8) + count (2) + interval (2).
const PREFIX_HEADER: usize = 12;

/// Default entries between restart points. Small enough that the linear
/// decode after the restart binary search stays short, large enough that
/// the per-restart slot + full key overhead amortizes well.
pub const DEFAULT_RESTART_INTERVAL: u16 = 16;

fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Builds a prefix-compressed leaf page incrementally, respecting a
/// page-size budget. Mirrors [`LeafPageBuilder`]'s API.
#[derive(Debug)]
pub struct PrefixLeafPageBuilder {
    page_size: usize,
    base_ordinal: u64,
    restart_interval: u16,
    /// Heap offsets of the restart entries.
    restarts: Vec<u32>,
    heap: Vec<u8>,
    count: usize,
    /// Key of the newest entry (meaningful once `count > 0`), reused across
    /// adds: non-restart entries delta-encode against it.
    last_key: Vec<u8>,
}

impl PrefixLeafPageBuilder {
    /// Creates a builder for a leaf whose first entry has global ordinal
    /// `base_ordinal`, with the default restart interval.
    pub fn new(page_size: usize, base_ordinal: u64) -> Self {
        Self::with_restart_interval(page_size, base_ordinal, DEFAULT_RESTART_INTERVAL)
    }

    /// Like [`PrefixLeafPageBuilder::new`] with an explicit restart
    /// interval (≥ 1); exposed for codec tests.
    pub fn with_restart_interval(page_size: usize, base_ordinal: u64, interval: u16) -> Self {
        PrefixLeafPageBuilder {
            page_size,
            base_ordinal,
            restart_interval: interval.max(1),
            restarts: Vec::new(),
            heap: Vec::new(),
            count: 0,
            last_key: Vec::new(),
        }
    }

    /// Empties the builder for a leaf starting at `base_ordinal`, keeping
    /// its buffers so the next page is built without allocating.
    pub fn reset(&mut self, base_ordinal: u64) {
        self.base_ordinal = base_ordinal;
        self.restarts.clear();
        self.heap.clear();
        self.count = 0;
        self.last_key.clear();
    }

    /// Bytes the page would occupy if finished now.
    pub fn current_size(&self) -> usize {
        PREFIX_HEADER + self.restarts.len() * 4 + self.heap.len()
    }

    /// Encoded heap cost of appending `(key, value)` next, plus the restart
    /// slot if the entry would start a new restart block.
    fn entry_cost(&self, key: &[u8], value: &[u8]) -> usize {
        if self.count.is_multiple_of(self.restart_interval as usize) {
            4 + slice_len(key) + slice_len(value)
        } else {
            let shared = shared_prefix_len(key, &self.last_key);
            varint_len(shared as u64)
                + varint_len((key.len() - shared) as u64)
                + (key.len() - shared)
                + slice_len(value)
        }
    }

    /// True if `(key, value)` fits in the remaining budget.
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        self.current_size() + self.entry_cost(key, value) <= self.page_size
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Appends an entry. Keys must arrive in strictly ascending order;
    /// callers are responsible for ordering, the builder only debug-asserts.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if !self.fits(key, value) && !self.is_empty() {
            return Err(Error::Storage("leaf page overflow".into()));
        }
        debug_assert!(
            self.count == 0 || self.last_key.as_slice() < key,
            "keys must be strictly ascending"
        );
        if self.heap.len() > u32::MAX as usize {
            return Err(Error::Storage("page offset overflow".into()));
        }
        if self.count.is_multiple_of(self.restart_interval as usize) {
            self.restarts.push(self.heap.len() as u32);
            put_slice(&mut self.heap, key);
        } else {
            let shared = shared_prefix_len(key, &self.last_key);
            put_varint(&mut self.heap, shared as u64);
            put_varint(&mut self.heap, (key.len() - shared) as u64);
            self.heap.extend_from_slice(&key[shared..]);
        }
        put_slice(&mut self.heap, value);
        self.count += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        Ok(())
    }

    /// First key in the page (None if empty). Entry 0 is a restart, so its
    /// full key opens the heap.
    pub fn first_key(&self) -> Option<&[u8]> {
        // INVARIANT: a non-empty heap starts with the `put_slice` record of
        // entry 0's key.
        (self.count > 0).then(|| get_slice(&self.heap).unwrap().0)
    }

    /// Appends the serialized page to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.current_size());
        out.extend_from_slice(&(self.base_ordinal | PREFIX_FLAG).to_le_bytes());
        out.extend_from_slice(&(self.count as u16).to_le_bytes());
        out.extend_from_slice(&self.restart_interval.to_le_bytes());
        for r in &self.restarts {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.heap);
    }

    /// Serializes the page.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.current_size());
        self.write_to(&mut out);
        out
    }
}

/// Read-only view over a serialized prefix-compressed leaf page.
#[derive(Debug, Clone, Copy)]
pub struct PrefixLeafPage<'a> {
    data: &'a [u8],
    count: usize,
    base_ordinal: u64,
    restart_interval: usize,
    num_restarts: usize,
}

impl<'a> PrefixLeafPage<'a> {
    /// Parses the page header.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < PREFIX_HEADER {
            return Err(Error::corruption("prefix leaf page too short"));
        }
        let word = u64::from_le_bytes(data[0..8].try_into().unwrap());
        if word & PREFIX_FLAG == 0 {
            return Err(Error::corruption("not a prefix-compressed leaf"));
        }
        let count = u16::from_le_bytes(data[8..10].try_into().unwrap()) as usize;
        let restart_interval = u16::from_le_bytes(data[10..12].try_into().unwrap()) as usize;
        if restart_interval == 0 {
            return Err(Error::corruption("prefix leaf restart interval is zero"));
        }
        let num_restarts = count.div_ceil(restart_interval);
        if data.len() < PREFIX_HEADER + num_restarts * 4 {
            return Err(Error::corruption("prefix leaf restart array out of bounds"));
        }
        Ok(PrefixLeafPage {
            data,
            count,
            base_ordinal: word & !PREFIX_FLAG,
            restart_interval,
            num_restarts,
        })
    }

    /// Number of entries.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Global ordinal of entry 0.
    pub fn base_ordinal(&self) -> u64 {
        self.base_ordinal
    }

    fn heap(&self) -> &'a [u8] {
        &self.data[PREFIX_HEADER + self.num_restarts * 4..]
    }

    fn restart_offset(&self, r: usize) -> usize {
        let off = PREFIX_HEADER + r * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    /// Full key of restart point `r`, borrowed straight from the heap.
    fn restart_key(&self, r: usize) -> Result<&'a [u8]> {
        let rest = self
            .heap()
            .get(self.restart_offset(r)..)
            .ok_or_else(|| Error::corruption("prefix leaf restart offset out of bounds"))?;
        Ok(get_slice(rest)?.0)
    }

    /// Decodes entry `idx`, which starts at heap offset `pos`. A restart
    /// entry overwrites `key` with its full key; any other entry rebuilds
    /// its key in place from `key`, which must hold entry `idx - 1`'s key.
    /// Returns the value and the heap offset of entry `idx + 1`.
    fn decode_at(&self, idx: usize, pos: usize, key: &mut Vec<u8>) -> Result<(&'a [u8], usize)> {
        let rest = self
            .heap()
            .get(pos..)
            .ok_or_else(|| Error::corruption("prefix leaf entry out of bounds"))?;
        if idx.is_multiple_of(self.restart_interval) {
            let (k, n) = get_slice(rest)?;
            key.clear();
            key.extend_from_slice(k);
            let (v, m) = get_slice(&rest[n..])?;
            return Ok((v, pos + n + m));
        }
        let (shared, a) = get_varint(rest)?;
        let (suffix_len, b) = get_varint(&rest[a..])?;
        let (shared, suffix_len) = (shared as usize, suffix_len as usize);
        if shared > key.len() || rest.len() < a + b + suffix_len {
            return Err(Error::corruption("prefix leaf delta out of bounds"));
        }
        key.truncate(shared);
        key.extend_from_slice(&rest[a + b..a + b + suffix_len]);
        let (v, m) = get_slice(&rest[a + b + suffix_len..])?;
        Ok((v, pos + a + b + suffix_len + m))
    }

    /// Decodes entries of restart block `r` from its start, calling `visit`
    /// with `(index, key, value, next offset)` until it returns `false` or
    /// the block ends. Keys are rebuilt in place in `key`, which holds the
    /// last visited key afterwards.
    fn walk_block(
        &self,
        r: usize,
        key: &mut Vec<u8>,
        mut visit: impl FnMut(usize, &[u8], &'a [u8], usize) -> bool,
    ) -> Result<()> {
        let mut pos = self.restart_offset(r);
        let start = r * self.restart_interval;
        let end = (start + self.restart_interval).min(self.count);
        for i in start..end {
            let (value, next) = self.decode_at(i, pos, key)?;
            pos = next;
            if !visit(i, key, value, next) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Decodes entry `idx` from its restart point, leaving its key in
    /// `key`. Returns the value and the heap offset of entry `idx + 1`.
    fn seek_entry(&self, idx: usize, key: &mut Vec<u8>) -> Result<(&'a [u8], usize)> {
        assert!(idx < self.count, "leaf index out of bounds");
        let mut found = None;
        self.walk_block(idx / self.restart_interval, key, |i, _, v, next| {
            if i == idx {
                found = Some((v, next));
                false
            } else {
                true
            }
        })?;
        found.ok_or_else(|| Error::corruption("prefix leaf entry missing"))
    }

    /// Returns the entry at `idx` (panics on out-of-bounds index). The key
    /// is owned for non-restart entries (reconstructed from deltas).
    pub fn entry(&self, idx: usize) -> Result<(Cow<'a, [u8]>, &'a [u8])> {
        assert!(idx < self.count, "leaf index out of bounds");
        let r = idx / self.restart_interval;
        if idx.is_multiple_of(self.restart_interval) {
            // Restart entries borrow straight from the page.
            let rest = self
                .heap()
                .get(self.restart_offset(r)..)
                .ok_or_else(|| Error::corruption("prefix leaf restart offset out of bounds"))?;
            let (k, n) = get_slice(rest)?;
            let (v, _) = get_slice(&rest[n..])?;
            return Ok((Cow::Borrowed(k), v));
        }
        let mut key = Vec::new();
        let v = self.entry_into(idx, &mut key)?;
        Ok((Cow::Owned(key), v))
    }

    /// Returns the value at `idx` and rebuilds its key in `key`, reusing
    /// the buffer's capacity (panics on out-of-bounds index).
    pub fn entry_into(&self, idx: usize, key: &mut Vec<u8>) -> Result<&'a [u8]> {
        Ok(self.seek_entry(idx, key)?.0)
    }

    /// The value at `idx`, its key left in `seq`'s key buffer; continues
    /// from `seq`'s position when it stopped right before `idx` on this
    /// page, and seeks from the restart point otherwise.
    fn entry_seq(&self, idx: usize, seq: &mut SeqDecode) -> Result<&'a [u8]> {
        assert!(idx < self.count, "leaf index out of bounds");
        let (value, next) = match seq.next {
            Some((i, pos)) if usize::from(i) == idx => {
                self.decode_at(idx, pos as usize, &mut seq.key)?
            }
            _ => self.seek_entry(idx, &mut seq.key)?,
        };
        // A page holds at most `u16::MAX` entries and `u32::MAX` heap
        // bytes (its header and restart slots say so); past either, the
        // next call just seeks from the restart point.
        seq.next = u16::try_from(idx + 1).ok().zip(u32::try_from(next).ok());
        Ok(value)
    }

    /// Key of the entry at `idx`.
    pub fn key(&self, idx: usize) -> Result<Cow<'a, [u8]>> {
        Ok(self.entry(idx)?.0)
    }

    /// First key (None if the page is empty).
    pub fn first_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(0)?))
    }

    /// Last key (None if the page is empty).
    pub fn last_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(self.count - 1)?))
    }

    /// Binary search for `key`: restart-array binary search, then a linear
    /// decode inside one restart block. Returns the same `Ok(idx)` /
    /// `Err(insertion_point)` values as [`LeafPage::search`] on the same
    /// entries; `cmps` counts key comparisons for CPU cost accounting.
    pub fn search(&self, key: &[u8]) -> Result<(std::result::Result<usize, usize>, u32)> {
        let mut cmps = 0u32;
        if self.count == 0 {
            return Ok((Err(0), cmps));
        }
        // Find the last restart whose key is <= `key` (block that could
        // contain it). If even restart 0 is greater, the answer is Err(0).
        let mut lo = 0usize;
        let mut hi = self.num_restarts;
        while lo < hi {
            let mid = (lo + hi) / 2;
            cmps += 1;
            if self.restart_key(mid)? <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let Some(r) = lo.checked_sub(1) else {
            return Ok((Err(0), cmps));
        };
        let mut result = Err((r * self.restart_interval + self.restart_interval).min(self.count));
        self.walk_block(r, &mut Vec::new(), |i, k, _, _| {
            cmps += 1;
            match k.cmp(key) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => {
                    result = Ok(i);
                    false
                }
                std::cmp::Ordering::Greater => {
                    result = Err(i);
                    false
                }
            }
        })?;
        Ok((result, cmps))
    }
}

/// Decode state of an in-order pass over one leaf page, for
/// [`LeafView::entry_seq`]: the next entry's index and heap offset, and
/// the previous key a prefix entry delta-decodes against.
#[derive(Debug, Default)]
pub(crate) struct SeqDecode {
    next: Option<(u16, u32)>,
    key: Vec<u8>,
}

impl SeqDecode {
    /// Forgets the position; call it before reading another page.
    pub(crate) fn reset(&mut self) {
        self.next = None;
    }
}

/// Read-only view over a leaf page of either encoding. All read paths go
/// through this, so plain and prefix-compressed leaves can coexist in one
/// tree (and one LSM component stack).
#[derive(Debug, Clone, Copy)]
pub enum LeafView<'a> {
    /// The original slotted format.
    Plain(LeafPage<'a>),
    /// The prefix-compressed format.
    Prefix(PrefixLeafPage<'a>),
}

impl<'a> LeafView<'a> {
    /// Detects the encoding from the header flag bit and parses the page.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < 8 {
            return Err(Error::corruption("leaf page too short"));
        }
        let word = u64::from_le_bytes(data[0..8].try_into().unwrap());
        if word & RESERVED_FLAG != 0 {
            return Err(Error::corruption("leaf page sets reserved flag bit 62"));
        }
        if word & PREFIX_FLAG != 0 {
            Ok(LeafView::Prefix(PrefixLeafPage::parse(data)?))
        } else {
            Ok(LeafView::Plain(LeafPage::parse(data)?))
        }
    }

    /// Number of entries.
    pub fn count(&self) -> usize {
        match self {
            LeafView::Plain(p) => p.count(),
            LeafView::Prefix(p) => p.count(),
        }
    }

    /// Global ordinal of entry 0.
    pub fn base_ordinal(&self) -> u64 {
        match self {
            LeafView::Plain(p) => p.base_ordinal(),
            LeafView::Prefix(p) => p.base_ordinal(),
        }
    }

    /// Returns the entry at `idx` (panics on out-of-bounds index). Keys
    /// borrow from the page where the encoding allows and are reconstructed
    /// (owned) otherwise; values always borrow.
    pub fn entry(&self, idx: usize) -> Result<(Cow<'a, [u8]>, &'a [u8])> {
        match self {
            LeafView::Plain(p) => {
                let (k, v) = p.entry(idx)?;
                Ok((Cow::Borrowed(k), v))
            }
            LeafView::Prefix(p) => p.entry(idx),
        }
    }

    /// Returns the value at `idx` without copying its key: plain pages
    /// borrow it, prefix pages rebuild it in `scratch` on the way.
    pub fn value(&self, idx: usize, scratch: &mut Vec<u8>) -> Result<&'a [u8]> {
        match self {
            LeafView::Plain(p) => Ok(p.entry(idx)?.1),
            LeafView::Prefix(p) => p.entry_into(idx, scratch),
        }
    }

    /// Returns the value at `idx` and writes its key into `key`, replacing
    /// the buffer's contents but keeping its capacity — the
    /// allocation-free twin of [`LeafView::entry`] for streaming scans.
    pub fn entry_into(&self, idx: usize, key: &mut Vec<u8>) -> Result<&'a [u8]> {
        match self {
            LeafView::Plain(p) => {
                let (k, v) = p.entry(idx)?;
                key.clear();
                key.extend_from_slice(k);
                Ok(v)
            }
            LeafView::Prefix(p) => p.entry_into(idx, key),
        }
    }

    /// Like [`LeafView::entry_into`], for a pass reading one page's
    /// entries in order: `seq` keeps the decode position and previous key
    /// between calls, so a prefix page decodes each entry once instead of
    /// re-walking its restart block per entry. Reset `seq` before moving
    /// to another page.
    pub(crate) fn entry_seq(
        &self,
        idx: usize,
        seq: &mut SeqDecode,
        key: &mut Vec<u8>,
    ) -> Result<&'a [u8]> {
        match self {
            LeafView::Plain(_) => self.entry_into(idx, key),
            LeafView::Prefix(p) => {
                let value = p.entry_seq(idx, seq)?;
                key.clear();
                key.extend_from_slice(&seq.key);
                Ok(value)
            }
        }
    }

    /// First key (None if the page is empty).
    pub fn first_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        match self {
            LeafView::Plain(p) => Ok(p.first_key()?.map(Cow::Borrowed)),
            LeafView::Prefix(p) => p.first_key(),
        }
    }

    /// Last key (None if the page is empty).
    pub fn last_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        match self {
            LeafView::Plain(p) => Ok(p.last_key()?.map(Cow::Borrowed)),
            LeafView::Prefix(p) => p.last_key(),
        }
    }

    /// In-page search for `key`; both encodings return identical
    /// `Ok(idx)` / `Err(insertion_point)` values. Prefix pages search
    /// restart keys then one block.
    pub fn search(&self, key: &[u8]) -> Result<(std::result::Result<usize, usize>, u32)> {
        match self {
            LeafView::Plain(p) => p.search(key),
            LeafView::Prefix(p) => p.search(key),
        }
    }

    /// Exponential (galloping) search from `from` — see
    /// [`LeafPage::exponential_search`]. Both encodings run the identical
    /// gallop over the decoded keys, so results agree exactly. Prefix-page
    /// keys are rebuilt in `scratch`, whose capacity is reused: with a warm
    /// buffer the search allocates nothing on either encoding.
    pub fn exponential_search(
        &self,
        key: &[u8],
        from: usize,
        scratch: &mut Vec<u8>,
    ) -> Result<(std::result::Result<usize, usize>, u32)> {
        match self {
            LeafView::Plain(p) => p.exponential_search(key, from),
            LeafView::Prefix(p) => gallop(from, p.count(), |i| {
                p.entry_into(i, scratch)?;
                Ok(scratch.as_slice().cmp(key))
            }),
        }
    }
}

/// The gallop-then-binary-search of prefix pages: identical probe
/// sequence to [`LeafPage::exponential_search`], expressed over `cmp_at`,
/// which orders entry `i`'s key against the probe key, so both encodings
/// agree exactly.
fn gallop(
    from: usize,
    n: usize,
    mut cmp_at: impl FnMut(usize) -> Result<std::cmp::Ordering>,
) -> Result<(std::result::Result<usize, usize>, u32)> {
    let mut cmps = 0u32;
    if from >= n {
        return Ok((Err(n), cmps));
    }
    let mut step = 1usize;
    let mut prev = from;
    let mut bound = from;
    loop {
        cmps += 1;
        match cmp_at(bound)? {
            std::cmp::Ordering::Less => {
                prev = bound + 1;
                if bound == n - 1 {
                    return Ok((Err(n), cmps));
                }
                bound = (bound + step).min(n - 1);
                step *= 2;
            }
            std::cmp::Ordering::Equal => return Ok((Ok(bound), cmps)),
            std::cmp::Ordering::Greater => break,
        }
    }
    let mut lo = prev;
    let mut hi = bound;
    while lo < hi {
        let mid = (lo + hi) / 2;
        cmps += 1;
        match cmp_at(mid)? {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok((Ok(mid), cmps)),
        }
    }
    Ok((Err(lo), cmps))
}

/// A leaf builder of either encoding, dispatched once per tree from
/// [`lsm_storage::StorageOptions::leaf_encoding`]. Plain stays byte-for-byte
/// identical to what [`LeafPageBuilder`] always wrote.
#[derive(Debug)]
pub enum AnyLeafBuilder {
    /// The original slotted format.
    Plain(LeafPageBuilder),
    /// The prefix-compressed format.
    Prefix(PrefixLeafPageBuilder),
}

impl AnyLeafBuilder {
    /// Creates a builder emitting `encoding` for a leaf whose first entry
    /// has global ordinal `base_ordinal`.
    pub fn new(encoding: LeafEncoding, page_size: usize, base_ordinal: u64) -> Self {
        match encoding {
            LeafEncoding::Plain => {
                AnyLeafBuilder::Plain(LeafPageBuilder::new(page_size, base_ordinal))
            }
            LeafEncoding::Prefix => {
                AnyLeafBuilder::Prefix(PrefixLeafPageBuilder::new(page_size, base_ordinal))
            }
        }
    }

    /// True if `(key, value)` fits in the remaining budget.
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        match self {
            AnyLeafBuilder::Plain(b) => b.fits(key, value),
            AnyLeafBuilder::Prefix(b) => b.fits(key, value),
        }
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        match self {
            AnyLeafBuilder::Plain(b) => b.is_empty(),
            AnyLeafBuilder::Prefix(b) => b.is_empty(),
        }
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        match self {
            AnyLeafBuilder::Plain(b) => b.count(),
            AnyLeafBuilder::Prefix(b) => b.count(),
        }
    }

    /// Appends an entry; keys must arrive strictly ascending.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        match self {
            AnyLeafBuilder::Plain(b) => b.add(key, value),
            AnyLeafBuilder::Prefix(b) => b.add(key, value),
        }
    }

    /// First key in the page (None if empty).
    pub fn first_key(&self) -> Option<&[u8]> {
        match self {
            AnyLeafBuilder::Plain(b) => b.first_key(),
            AnyLeafBuilder::Prefix(b) => b.first_key(),
        }
    }

    /// Empties the builder for a leaf starting at `base_ordinal`, keeping
    /// its buffers.
    pub fn reset(&mut self, base_ordinal: u64) {
        match self {
            AnyLeafBuilder::Plain(b) => b.reset(base_ordinal),
            AnyLeafBuilder::Prefix(b) => b.reset(base_ordinal),
        }
    }

    /// Appends the serialized page to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            AnyLeafBuilder::Plain(b) => b.write_to(out),
            AnyLeafBuilder::Prefix(b) => b.write_to(out),
        }
    }

    /// Serializes the page.
    pub fn finish(self) -> Vec<u8> {
        match self {
            AnyLeafBuilder::Plain(b) => b.finish(),
            AnyLeafBuilder::Prefix(b) => b.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_prefix(entries: &[(&[u8], &[u8])], base: u64, interval: u16) -> Vec<u8> {
        let mut b = PrefixLeafPageBuilder::with_restart_interval(1 << 20, base, interval);
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        b.finish()
    }

    #[test]
    fn prefix_roundtrip_and_flag() {
        let data = build_prefix(
            &[
                (b"apple", b"1"),
                (b"applet", b"22"),
                (b"apply", b""),
                (b"banana", b"3"),
            ],
            9,
            2,
        );
        let view = LeafView::parse(&data).unwrap();
        assert!(matches!(view, LeafView::Prefix(_)));
        assert_eq!(view.count(), 4);
        assert_eq!(view.base_ordinal(), 9);
        let expect: [(&[u8], &[u8]); 4] = [
            (b"apple", b"1"),
            (b"applet", b"22"),
            (b"apply", b""),
            (b"banana", b"3"),
        ];
        for (i, (k, v)) in expect.iter().enumerate() {
            let (gk, gv) = view.entry(i).unwrap();
            assert_eq!((gk.as_ref(), gv), (*k, *v), "entry {i}");
        }
        assert_eq!(view.first_key().unwrap().unwrap().as_ref(), b"apple");
        assert_eq!(view.last_key().unwrap().unwrap().as_ref(), b"banana");
    }

    #[test]
    fn prefix_search_matches_plain() {
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("user{i:05}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let prefix = build_prefix(&entries, 0, 7);
        let mut plain_b = LeafPageBuilder::new(1 << 20, 0);
        for (k, v) in &entries {
            plain_b.add(k, v).unwrap();
        }
        let plain_data = plain_b.finish();
        let pv = LeafView::parse(&prefix).unwrap();
        let lv = LeafView::parse(&plain_data).unwrap();
        for probe in [
            "user00000",
            "user00050",
            "user00099",
            "user00049x",
            "a",
            "zzz",
        ] {
            let (a, _) = pv.search(probe.as_bytes()).unwrap();
            let (b, _) = lv.search(probe.as_bytes()).unwrap();
            assert_eq!(a, b, "probe {probe}");
        }
    }

    #[test]
    fn empty_and_single_entry_pages() {
        let empty = PrefixLeafPageBuilder::new(4096, 0).finish();
        let v = LeafView::parse(&empty).unwrap();
        assert_eq!(v.count(), 0);
        assert_eq!(v.search(b"x").unwrap().0, Err(0));
        assert!(v.first_key().unwrap().is_none());

        let one = build_prefix(&[(b"k", b"v")], 3, 16);
        let v = LeafView::parse(&one).unwrap();
        assert_eq!(v.count(), 1);
        assert_eq!(v.entry(0).unwrap().0.as_ref(), b"k");
        assert_eq!(v.search(b"k").unwrap().0, Ok(0));
        assert_eq!(v.search(b"j").unwrap().0, Err(0));
        assert_eq!(v.search(b"l").unwrap().0, Err(1));
    }

    #[test]
    fn prefix_compresses_shared_prefixes() {
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| format!("tweet/2019-07-15/user-{i:010}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let prefix = build_prefix(&entries, 0, 16);
        let mut plain_b = LeafPageBuilder::new(1 << 20, 0);
        for (k, v) in &entries {
            plain_b.add(k, v).unwrap();
        }
        let plain = plain_b.finish();
        assert!(
            prefix.len() < plain.len() * 3 / 4,
            "prefix {} vs plain {}",
            prefix.len(),
            plain.len()
        );
    }

    #[test]
    fn plain_builder_output_unchanged_through_any_builder() {
        let mut any = AnyLeafBuilder::new(LeafEncoding::Plain, 4096, 5);
        let mut plain = LeafPageBuilder::new(4096, 5);
        for (k, v) in [(&b"a"[..], &b"1"[..]), (b"bb", b"22"), (b"ccc", b"")] {
            any.add(k, v).unwrap();
            plain.add(k, v).unwrap();
        }
        assert_eq!(any.finish(), plain.finish());
    }

    #[test]
    fn prefix_parse_rejects_corruption() {
        assert!(PrefixLeafPage::parse(&[0; 4]).is_err());
        // Plain page handed to the prefix parser.
        let plain = LeafPageBuilder::new(4096, 0).finish();
        assert!(PrefixLeafPage::parse(&plain).is_err());
        // Count implies more restart slots than the page holds.
        let mut bad = (PREFIX_FLAG).to_le_bytes().to_vec();
        bad.extend_from_slice(&u16::MAX.to_le_bytes());
        bad.extend_from_slice(&1u16.to_le_bytes());
        assert!(PrefixLeafPage::parse(&bad).is_err());
        // Zero restart interval.
        let mut zero = (PREFIX_FLAG).to_le_bytes().to_vec();
        zero.extend_from_slice(&0u16.to_le_bytes());
        zero.extend_from_slice(&0u16.to_le_bytes());
        assert!(PrefixLeafPage::parse(&zero).is_err());
    }

    #[test]
    fn leaf_view_rejects_reserved_bit_62() {
        for encoding in LeafEncoding::ALL {
            let mut data = AnyLeafBuilder::new(encoding, 4096, 0).finish();
            assert!(LeafView::parse(&data).is_ok(), "{encoding:?}");
            data[7] |= (RESERVED_FLAG >> 56) as u8;
            assert!(LeafView::parse(&data).is_err(), "{encoding:?}");
        }
    }

    #[test]
    fn any_builder_prefix_matches_direct_builder() {
        let mut any = AnyLeafBuilder::new(LeafEncoding::Prefix, 4096, 11);
        let mut direct = PrefixLeafPageBuilder::new(4096, 11);
        for i in 0..40u32 {
            any.add(format!("k{i:04}").as_bytes(), b"value").unwrap();
            direct.add(format!("k{i:04}").as_bytes(), b"value").unwrap();
        }
        assert_eq!(any.finish(), direct.finish());
    }

    #[test]
    fn prefix_exponential_search_matches_plain() {
        let mut plain = LeafPageBuilder::new(1 << 20, 0);
        let mut prefix = PrefixLeafPageBuilder::with_restart_interval(1 << 20, 0, 4);
        for i in 0..50u32 {
            plain
                .add(format!("u{:03}", i * 2).as_bytes(), b"v")
                .unwrap();
            prefix
                .add(format!("u{:03}", i * 2).as_bytes(), b"v")
                .unwrap();
        }
        let (plain, prefix) = (plain.finish(), prefix.finish());
        let (lv, pv) = (
            LeafView::parse(&plain).unwrap(),
            LeafView::parse(&prefix).unwrap(),
        );
        for probe in (0..102u32).map(|i| format!("u{i:03}")) {
            for from in 0..=50 {
                let got = pv
                    .exponential_search(probe.as_bytes(), from, &mut Vec::new())
                    .unwrap();
                let want = lv
                    .exponential_search(probe.as_bytes(), from, &mut Vec::new())
                    .unwrap();
                assert_eq!(got, want, "probe {probe} from {from}");
            }
        }
    }
}
