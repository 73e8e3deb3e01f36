//! The answer model: each key's latest record, as the benchmark itself
//! applied it. Every get and query result is checked against it outside
//! the timed spans.

use crate::gen::{record_hash, Upsert};
use lsm_common::Record;
use std::collections::{BTreeSet, HashMap};

struct Entry {
    user_id: i64,
    hash: u64,
    len: u64,
}

#[derive(Default)]
pub struct Model {
    entries: HashMap<i64, Entry>,
    /// `(user_id, pk)` of every live key, for range-query answers.
    by_user: BTreeSet<(i64, i64)>,
    live_bytes: u64,
}

fn pk_and_hash(r: &Record) -> Option<(i64, u64)> {
    Some((r.get(0).as_int()?, record_hash(&r.encode())))
}

impl Model {
    pub fn apply(&mut self, u: &Upsert) {
        let new = Entry {
            user_id: u.user_id,
            hash: u.hash,
            len: u.len,
        };
        if let Some(old) = self.entries.insert(u.pk, new) {
            self.by_user.remove(&(old.user_id, u.pk));
            self.live_bytes -= old.len;
        }
        self.by_user.insert((u.user_id, u.pk));
        self.live_bytes += u.len;
    }

    /// Encoded bytes of every key's latest version.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// True if `got` is the latest record of `pk`.
    pub fn check_get(&self, pk: i64, got: Option<&Record>) -> bool {
        match (got.and_then(pk_and_hash), self.entries.get(&pk)) {
            (Some((got_pk, hash)), Some(e)) => got_pk == pk && hash == e.hash,
            (None, None) => true,
            _ => false,
        }
    }

    /// True if `got` holds exactly the latest records whose `user_id` lies
    /// in `[lo, hi]`, in any order.
    pub fn check_query(&self, lo: i64, hi: i64, got: &[Record]) -> bool {
        let mut want: Vec<(i64, u64)> = self
            .by_user
            .range((lo, i64::MIN)..=(hi, i64::MAX))
            .map(|&(_, pk)| (pk, self.entries[&pk].hash))
            .collect();
        let Some(mut have) = got.iter().map(pk_and_hash).collect::<Option<Vec<_>>>() else {
            return false;
        };
        want.sort_unstable();
        have.sort_unstable();
        want == have
    }

    /// Replaces `pk`'s expected record with one no read can return, so
    /// the next check of `pk` fails (the self-test's fault injection).
    pub fn corrupt(&mut self, pk: i64) {
        if let Some(e) = self.entries.get_mut(&pk) {
            e.hash = !e.hash;
        }
    }
}
