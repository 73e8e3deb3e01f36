//! Bulk loader for immutable B+-tree components.
//!
//! LSM disk components are always produced whole — by a flush of a memory
//! component or by a merge of existing components — so the tree is built
//! bottom-up from a sorted entry stream: leaves are packed and written first
//! (contiguously, so range scans read pages sequentially), then each internal
//! level, then a metadata page last.

use crate::encoding::put_slice;
use crate::leaf::AnyLeafBuilder;
use crate::page::InternalPageBuilder;
use crate::tree::{BTree, TreeMeta, META_MAGIC};
use lsm_common::{Error, Result};
use lsm_storage::{FileId, Storage};
use std::sync::Arc;

/// Streaming bulk loader. Feed strictly ascending keys via [`BTreeBuilder::add`],
/// then call [`BTreeBuilder::finish`].
///
/// Leaves are emitted in the encoding the storage was configured with
/// ([`lsm_storage::StorageOptions::leaf_encoding`]); internal pages and the
/// metadata page are encoding-independent.
///
/// Entries stream through with no per-entry allocation: the open leaf, the
/// serialized-page buffer and the last-key buffer are reused from page to
/// page, so a build allocates per leaf page (its router key and the stored
/// page), not per entry.
pub struct BTreeBuilder {
    storage: Arc<Storage>,
    file: FileId,
    leaf: AnyLeafBuilder,
    /// Serialized-leaf buffer handed to [`Storage::append_page`], reused.
    page: Vec<u8>,
    /// `(first_key, page_no)` of each completed leaf, for the router levels.
    leaf_index: Vec<(Vec<u8>, u32)>,
    next_page: u32,
    num_entries: u64,
    /// The first key added; recorded in the metadata page.
    min_key: Option<Vec<u8>>,
    /// The newest key added (meaningful once `num_entries > 0`), refilled in
    /// place by every add. It enforces strict ascent and becomes the
    /// metadata page's max key at [`BTreeBuilder::finish`].
    last_key: Vec<u8>,
}

impl BTreeBuilder {
    /// Starts building a tree in a fresh file of `storage`.
    pub fn new(storage: Arc<Storage>) -> Self {
        let file = storage.create_file();
        let leaf = AnyLeafBuilder::new(storage.leaf_encoding(), storage.page_size(), 0);
        BTreeBuilder {
            storage,
            file,
            leaf,
            page: Vec::new(),
            leaf_index: Vec::new(),
            next_page: 0,
            num_entries: 0,
            min_key: None,
            last_key: Vec::new(),
        }
    }

    /// Appends an entry. Keys must be strictly ascending.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.num_entries > 0 && key <= self.last_key.as_slice() {
            return Err(Error::invalid(format!(
                "bulk load keys must be strictly ascending ({:02x?} after {:02x?})",
                key, self.last_key
            )));
        }
        if !self.leaf.fits(key, value) {
            if self.leaf.is_empty() {
                return Err(Error::invalid("entry larger than page size"));
            }
            self.flush_leaf()?;
        }
        self.leaf.add(key, value)?;
        self.num_entries += 1;
        if self.min_key.is_none() {
            self.min_key = Some(key.to_vec());
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        Ok(())
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// The ordinal position the *next* added entry will receive. Merge
    /// repair (Section 4.4, Figure 7) records this per entry so it can set
    /// bitmap bits after validation.
    pub fn next_ordinal(&self) -> u64 {
        self.num_entries
    }

    /// Writes the open leaf and reopens it empty. Every entry added so far
    /// sits in a completed leaf afterwards, so the next leaf's base ordinal
    /// is `num_entries`.
    fn flush_leaf(&mut self) -> Result<()> {
        let first = self
            .leaf
            .first_key()
            .expect("flush_leaf on empty leaf")
            .to_vec();
        self.page.clear();
        self.leaf.write_to(&mut self.page);
        self.leaf.reset(self.num_entries);
        let page_no = self.storage.append_page(self.file, &self.page)?;
        debug_assert_eq!(page_no, self.next_page);
        self.leaf_index.push((first, self.next_page));
        self.next_page += 1;
        Ok(())
    }

    /// Finalizes the tree and returns a reader over it.
    pub fn finish(mut self) -> Result<BTree> {
        if !self.leaf.is_empty() {
            self.flush_leaf()?;
        }
        let num_leaves = self.next_page;
        let page_size = self.storage.page_size();

        // Build router levels bottom-up until a single root remains.
        let mut level: Vec<(Vec<u8>, u32)> = self.leaf_index.clone();
        let mut height: u32 = if num_leaves > 0 { 1 } else { 0 };
        let mut root = if num_leaves == 1 { 0 } else { u32::MAX };
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, u32)> = Vec::new();
            let mut builder = InternalPageBuilder::new(page_size);
            for (key, child) in &level {
                if !builder.fits(key) && !builder.is_empty() {
                    let done = std::mem::replace(&mut builder, InternalPageBuilder::new(page_size));
                    let first = done.first_key().unwrap().to_vec();
                    let page_no = self.storage.append_page(self.file, &done.finish())?;
                    next_level.push((first, page_no));
                }
                builder.add(key, *child)?;
            }
            let first = builder.first_key().unwrap().to_vec();
            let page_no = self.storage.append_page(self.file, &builder.finish())?;
            next_level.push((first, page_no));
            if next_level.len() == 1 {
                root = next_level[0].1;
            }
            level = next_level;
        }

        let meta = TreeMeta {
            root,
            height,
            num_leaves,
            num_entries: self.num_entries,
            max_key: self.min_key.is_some().then_some(self.last_key),
            min_key: self.min_key,
        };
        let mut meta_page = Vec::new();
        meta_page.extend_from_slice(&META_MAGIC.to_le_bytes());
        meta_page.extend_from_slice(&meta.root.to_le_bytes());
        meta_page.extend_from_slice(&meta.height.to_le_bytes());
        meta_page.extend_from_slice(&meta.num_leaves.to_le_bytes());
        meta_page.extend_from_slice(&meta.num_entries.to_le_bytes());
        put_slice(&mut meta_page, meta.min_key.as_deref().unwrap_or(b""));
        put_slice(&mut meta_page, meta.max_key.as_deref().unwrap_or(b""));
        if meta_page.len() > page_size {
            return Err(Error::Storage("metadata page overflow".into()));
        }
        self.storage.append_page(self.file, &meta_page)?;

        Ok(BTree::from_parts(self.storage, self.file, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::StorageOptions;

    fn storage() -> Arc<Storage> {
        Storage::new(StorageOptions::test())
    }

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{i:08}").into_bytes(),
            format!("value{i}").into_bytes(),
        )
    }

    #[test]
    fn build_empty_tree() {
        let t = BTreeBuilder::new(storage()).finish().unwrap();
        assert_eq!(t.num_entries(), 0);
        assert!(t.search(b"anything").unwrap().is_none());
    }

    #[test]
    fn build_single_entry() {
        let mut b = BTreeBuilder::new(storage());
        b.add(b"k", b"v").unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.num_entries(), 1);
        let (v, ord) = t.search(b"k").unwrap().unwrap();
        assert_eq!(v, b"v");
        assert_eq!(ord, 0);
        assert!(t.search(b"j").unwrap().is_none());
        assert!(t.search(b"l").unwrap().is_none());
    }

    #[test]
    fn rejects_non_ascending_keys() {
        let mut b = BTreeBuilder::new(storage());
        b.add(b"b", b"1").unwrap();
        assert!(b.add(b"b", b"2").is_err());
        assert!(b.add(b"a", b"3").is_err());
    }

    #[test]
    fn build_multi_level_and_search_all() {
        let s = storage();
        let mut b = BTreeBuilder::new(s);
        let n = 5000u32;
        for i in 0..n {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.num_entries(), n as u64);
        assert!(
            t.height() >= 2,
            "expected router levels, got {}",
            t.height()
        );
        for i in (0..n).step_by(97) {
            let (k, v) = kv(i);
            let (got, ord) = t.search(&k).unwrap().unwrap();
            assert_eq!(got, v);
            assert_eq!(ord, i as u64);
        }
        assert!(t.search(b"key99999999x").unwrap().is_none());
        assert!(t.search(b"a").unwrap().is_none());
    }

    #[test]
    fn min_max_keys_recorded() {
        let s = storage();
        let mut b = BTreeBuilder::new(s);
        for i in 10..20u32 {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.min_key().unwrap(), kv(10).0.as_slice());
        assert_eq!(t.max_key().unwrap(), kv(19).0.as_slice());
    }

    #[test]
    fn oversized_entry_rejected() {
        let s = storage();
        let big = vec![0u8; s.page_size() + 1];
        let mut b = BTreeBuilder::new(s);
        assert!(b.add(b"k", &big).is_err());
    }

    #[test]
    fn reopen_matches_built_tree() {
        let s = storage();
        let mut b = BTreeBuilder::new(s.clone());
        for i in 0..500u32 {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        let built = b.finish().unwrap();
        let reopened = BTree::open(s, built.file()).unwrap();
        assert_eq!(reopened.num_entries(), built.num_entries());
        assert_eq!(reopened.height(), built.height());
        let (k, v) = kv(123);
        assert_eq!(reopened.search(&k).unwrap().unwrap().0, v);
    }
}
