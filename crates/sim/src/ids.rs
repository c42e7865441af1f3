//! The serving engine's id table: stable [`ClientId`]s to client
//! indices.
//!
//! Ids are issued in sequence and never reused, so the table is a
//! sequence of fixed pages indexed by `id / PAGE`, one `u32` entry per
//! id: no hashing, no probe. An entry holds the id's client index once
//! it is live, or one of three marks before that: its Join is buffered,
//! its Join waits in the deferred queue, or the id is vacant (never
//! issued, or departed). A buffered Leave sets a flag on the entry.
//!
//! A page is freed once every id in it has been issued and has
//! departed, and freed pages at the front are dropped. That keeps the
//! table at about 4 B per live id while the ids issued are about the
//! live population, or ids depart in join order. Under memoryless
//! churn, where each departure is any live id alike, a page is held
//! until its last id departs, about H_1024 ≈ 7.5 mean lifetimes: after
//! ten lifetimes over 1M live ids, 7 328 pages were resident against
//! ⌈live / PAGE⌉ = 977, 30.5 B per live id. So a fully issued page is
//! also compacted, once its held ids are at most a quarter of the
//! entries it stores, into a slot-sorted list of the held ids' entries,
//! searched by binary search. The same churn then leaves 9.7 B per live
//! id: the table follows the live population whatever the departure
//! order.

use crate::serve::ClientId;
use std::collections::VecDeque;

/// Ids per page: 4 KiB of `u32` entries. Ten lifetimes of memoryless
/// churn over 1M live ids left 27.0, 26.4 and 30.5 B per live id at 64,
/// 256 and 1 024 ids per page without compaction, so no page size alone
/// follows the live population; with compaction, 16.7, 11.1, 9.7 and
/// 9.3 B at 64, 256, 1 024 and 4 096 (page list and entries). 1 024 is
/// within 0.4 B of 4 096 at a quarter of the page.
pub(crate) const PAGE: usize = 1024;

/// A fully issued page is compacted once its held ids are at most
/// `1 / COMPACT_AT` of the entries it stores. Ten lifetimes of
/// memoryless churn over 1M live ids left 8.8, 9.7 and 10.5 B per live
/// id at 2, 4 and 6; 4 compacts half as often as 2.
const COMPACT_AT: usize = 4;

// In-page slots are stored as `u16` in compacted pages.
const _: () = assert!(PAGE <= 1 << 16);

/// The entry of an id that is not live: never issued, or departed.
const VACANT: u32 = 0x7fff_ffff;
/// The entry of an issued id whose Join is buffered.
const JOINING: u32 = 0x7fff_fffe;
/// The entry of an issued id whose Join waits in the deferred queue.
const DEFERRED: u32 = 0x7fff_fffd;
/// Flag on a live or joining entry whose Leave is buffered.
const LEAVING: u32 = 1 << 31;

/// What the table knows of one id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdState {
    /// Never issued, or departed.
    Vacant,
    /// Issued; the Join waits in the deferred queue.
    Deferred,
    /// Issued; the Join is buffered. `leaving` when a Leave is buffered
    /// too.
    Joining {
        /// A Leave of the id is buffered.
        leaving: bool,
    },
    /// Live at client index `index`.
    Live {
        /// The client's index in the instance.
        index: usize,
        /// A Leave of the id is buffered.
        leaving: bool,
    },
}

/// Per-kind entry counts of the resident pages ([`IdTable::census`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct IdCensus {
    /// Live ids.
    pub live: usize,
    /// Ids whose Join is buffered.
    pub joining: usize,
    /// Ids whose Join waits in the deferred queue.
    pub deferred: usize,
    /// Ids flagged with a buffered Leave.
    pub leaving: usize,
}

/// One page of the table.
#[derive(Debug)]
struct Page {
    /// Issued ids of this page that have not departed.
    held: u32,
    /// The page's entries.
    entries: Entries,
}

/// The entries of a [`Page`].
#[derive(Debug)]
enum Entries {
    /// One entry per id of the page, indexed by in-page slot.
    Dense(Box<[u32]>),
    /// `(slot, entry)` of the ids the page held when it was last
    /// compacted, sorted by slot. Ids that departed since read vacant;
    /// a slot not listed is vacant.
    Sparse(Box<[(u16, u32)]>),
}

impl Page {
    /// A dense page of vacant entries.
    fn vacant() -> Page {
        Page {
            held: 0,
            entries: Entries::Dense(vec![VACANT; PAGE].into_boxed_slice()),
        }
    }

    /// The position of `slot` in a compacted page's list.
    fn find(list: &[(u16, u32)], slot: usize) -> Result<usize, usize> {
        list.binary_search_by_key(&(slot as u16), |&(at, _)| at)
    }

    /// The entry at `slot`.
    fn entry(&self, slot: usize) -> u32 {
        match &self.entries {
            Entries::Dense(entries) => entries[slot],
            Entries::Sparse(list) => Page::find(list, slot).map_or(VACANT, |at| list[at].1),
        }
    }

    /// The entry at `slot`, which must be listed when the page is
    /// compacted: compaction keeps every held id.
    fn entry_mut(&mut self, slot: usize) -> &mut u32 {
        match &mut self.entries {
            Entries::Dense(entries) => &mut entries[slot],
            Entries::Sparse(list) => {
                let at = Page::find(list, slot).expect("a compacted page lists its held ids");
                &mut list[at].1
            }
        }
    }

    /// Every `(slot, entry)` the page stores, vacant ones included, in
    /// slot order.
    fn slots(&self) -> impl Iterator<Item = (u16, u32)> + '_ {
        let (dense, sparse): (&[u32], &[(u16, u32)]) = match &self.entries {
            Entries::Dense(entries) => (entries, &[]),
            Entries::Sparse(list) => (&[], list),
        };
        let dense = dense.iter().enumerate().map(|(slot, &e)| (slot as u16, e));
        dense.chain(sparse.iter().copied())
    }

    /// The number of entries the page stores.
    fn stored(&self) -> usize {
        match &self.entries {
            Entries::Dense(entries) => entries.len(),
            Entries::Sparse(list) => list.len(),
        }
    }

    /// Whether the page, once fully issued, is due for compaction: it
    /// holds ids, at most `1 / COMPACT_AT` of the entries it stores.
    fn due(&self) -> bool {
        self.held > 0 && self.held as usize * COMPACT_AT <= self.stored()
    }

    /// Keeps only the held ids' entries, in a sorted list.
    fn compact(&mut self) {
        let held: Box<[(u16, u32)]> = self.slots().filter(|&(_, e)| e != VACANT).collect();
        self.entries = Entries::Sparse(held);
    }
}

/// The id → index table (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct IdTable {
    /// Page number of `pages[0]`.
    first: u64,
    /// Pages in id order from page `first`; `None` once freed.
    pages: VecDeque<Option<Page>>,
    /// The next id to issue.
    next: ClientId,
}

/// The page number and in-page slot of `id`.
fn split(id: ClientId) -> (u64, usize) {
    (id / PAGE as u64, (id % PAGE as u64) as usize)
}

/// Client index `index` as an entry. Indices stay below the marks and
/// the flag; the conversion is checked so an index can never alias one.
fn index_entry(index: usize) -> u32 {
    match u32::try_from(index) {
        Ok(entry) if entry < DEFERRED => entry,
        _ => panic!("client index {index} does not fit the id table"),
    }
}

impl IdTable {
    /// A table whose ids `0..clients` are live at the equal indices,
    /// with room in the page list for `capacity` ids before it grows.
    pub(crate) fn with_live(clients: usize, capacity: usize) -> IdTable {
        let mut pages = VecDeque::with_capacity(capacity.max(clients).div_ceil(PAGE) + 1);
        for start in (0..clients).step_by(PAGE) {
            let mut page = Page::vacant();
            for index in start..(start + PAGE).min(clients) {
                *page.entry_mut(index - start) = index_entry(index);
                page.held += 1;
            }
            pages.push_back(Some(page));
        }
        IdTable {
            first: 0,
            pages,
            next: clients as ClientId,
        }
    }

    /// The entry of `id`, or `None` when its page is not resident.
    fn entry(&self, id: ClientId) -> Option<u32> {
        let (page, slot) = split(id);
        let at = usize::try_from(page.checked_sub(self.first)?).ok()?;
        Some(self.pages.get(at)?.as_ref()?.entry(slot))
    }

    /// The resident page of `id`.
    fn page_mut(&mut self, id: ClientId) -> &mut Page {
        let at = (split(id).0 - self.first) as usize;
        self.pages[at]
            .as_mut()
            .expect("an issued, undeparted id's page is resident")
    }

    /// The entry of `id`, which must be issued and not departed.
    fn entry_mut(&mut self, id: ClientId) -> &mut u32 {
        self.page_mut(id).entry_mut(split(id).1)
    }

    /// What the table knows of `id`.
    pub(crate) fn state(&self, id: ClientId) -> IdState {
        let Some(entry) = self.entry(id) else {
            return IdState::Vacant;
        };
        let leaving = entry & LEAVING != 0;
        match entry & !LEAVING {
            VACANT => IdState::Vacant,
            DEFERRED => IdState::Deferred,
            JOINING => IdState::Joining { leaving },
            index => IdState::Live {
                index: index as usize,
                leaving,
            },
        }
    }

    /// The index of `id` when it is live.
    pub(crate) fn index(&self, id: ClientId) -> Option<usize> {
        match self.state(id) {
            IdState::Live { index, .. } => Some(index),
            _ => None,
        }
    }

    /// Issues the next id: its Join is buffered, or deferred when
    /// `deferred`.
    pub(crate) fn issue(&mut self, deferred: bool) -> ClientId {
        let id = self.next;
        self.next += 1;
        let (page, _) = split(id);
        if page == self.first + self.pages.len() as u64 {
            self.pages.push_back(None);
        }
        let at = (page - self.first) as usize;
        self.pages[at].get_or_insert_with(Page::vacant).held += 1;
        *self.entry_mut(id) = if deferred { DEFERRED } else { JOINING };
        id
    }

    /// Marks a deferred id's Join as buffered (re-admission).
    pub(crate) fn set_joining(&mut self, id: ClientId) {
        let entry = self.entry_mut(id);
        debug_assert_eq!(*entry, DEFERRED, "only a deferred id is re-admitted");
        *entry = JOINING;
    }

    /// Flags `id`'s buffered Leave.
    pub(crate) fn set_leaving(&mut self, id: ClientId) {
        *self.entry_mut(id) |= LEAVING;
    }

    /// Points `id` at client index `index` (a joiner goes live, or a
    /// live client is relocated), keeping its Leave flag.
    pub(crate) fn set_index(&mut self, id: ClientId, index: usize) {
        let entry = self.entry_mut(id);
        *entry = (*entry & LEAVING) | index_entry(index);
    }

    /// Retires `id` for good. Once every id of its page has been
    /// issued, frees the page when none is held, then drops the freed
    /// pages at the front, or compacts it when it is due.
    pub(crate) fn depart(&mut self, id: ClientId) {
        *self.entry_mut(id) = VACANT;
        let issued = self.issued(split(id).0);
        let page = self.page_mut(id);
        page.held -= 1;
        if !issued {
            return;
        }
        if page.held == 0 {
            let at = (split(id).0 - self.first) as usize;
            self.pages[at] = None;
            while matches!(self.pages.front(), Some(None)) {
                self.pages.pop_front();
                self.first += 1;
            }
        } else if page.due() {
            page.compact();
        }
    }

    /// Whether every id of page `page` has been issued.
    fn issued(&self, page: u64) -> bool {
        (page + 1) * PAGE as u64 <= self.next
    }

    /// Pages currently allocated.
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Bytes the table holds: its page list and every resident page's
    /// entries.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        let entries: usize = self
            .pages
            .iter()
            .flatten()
            .map(|page| match &page.entries {
                Entries::Dense(entries) => std::mem::size_of_val(&entries[..]),
                Entries::Sparse(list) => std::mem::size_of_val(&list[..]),
            })
            .sum();
        self.pages.capacity() * std::mem::size_of::<Option<Page>>() + entries
    }

    /// The page list's address and capacity: the one book of the table
    /// that grows by copying.
    #[cfg(test)]
    pub(crate) fn page_list(&self) -> (usize, usize) {
        let (front, _) = self.pages.as_slices();
        (front.as_ptr() as usize, self.pages.capacity())
    }

    /// Counts the resident entries by kind. `None` when a page's held
    /// count disagrees with its entries, a compacted page's slots are
    /// out of order, or a page that should have been freed (fully
    /// issued, none held) is still resident.
    pub(crate) fn census(&self) -> Option<IdCensus> {
        let mut census = IdCensus::default();
        for (at, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            let mut held = 0;
            let mut last = None;
            for (slot, entry) in page.slots() {
                if last >= Some(slot) {
                    return None;
                }
                last = Some(slot);
                if entry & !LEAVING == VACANT {
                    continue;
                }
                held += 1;
                census.leaving += usize::from(entry & LEAVING != 0);
                match entry & !LEAVING {
                    DEFERRED => census.deferred += 1,
                    JOINING => census.joining += 1,
                    _ => census.live += 1,
                }
            }
            let issued = self.issued(self.first + at as u64);
            if held != page.held || (issued && held == 0) {
                return None;
            }
        }
        Some(census)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 000 joins, then leaves in join order: after every leave the
    /// oldest and newest live ids still resolve, and the resident pages
    /// never exceed ⌈live / PAGE⌉ + 2, so the table follows the live
    /// population down to nothing.
    #[test]
    fn leaves_in_join_order_free_pages_behind_the_live_range() {
        const JOINS: usize = 100_000;
        let mut table = IdTable::default();
        for index in 0..JOINS {
            let id = table.issue(false);
            assert_eq!(id, index as ClientId);
            table.set_index(id, index);
        }
        assert_eq!(table.resident_pages(), JOINS.div_ceil(PAGE));
        for id in 0..JOINS as ClientId {
            table.depart(id);
            let live = JOINS - id as usize - 1;
            assert!(
                table.resident_pages() <= live.div_ceil(PAGE) + 2,
                "{} pages resident for {live} live ids",
                table.resident_pages()
            );
            if live > 0 {
                assert!(table.index(id + 1).is_some(), "the oldest live id resolves");
                assert!(table.index(JOINS as ClientId - 1).is_some());
            }
            assert_eq!(table.state(id), IdState::Vacant);
        }
        // Only the page of the next id stays: it still has ids to issue.
        assert_eq!(table.resident_pages(), 1);
        assert_eq!(table.census(), Some(IdCensus::default()));
        // Ids keep counting after the table empties.
        assert_eq!(table.issue(false), JOINS as ClientId);
        assert_eq!(table.resident_pages(), 1);
    }

    /// Memoryless churn: each departure is any live id alike, and a
    /// join replaces it. A page is then held until its last id departs,
    /// so about H_PAGE ≈ 7.5 × ⌈live / PAGE⌉ pages stay resident, and
    /// compaction keeps their bytes near the live population: after ten
    /// mean lifetimes over 100 000 live ids the table holds under 12 B
    /// per live id (9.7 B measured; 30.3 B without compaction). Every
    /// live id still resolves to its index, and every departed id reads
    /// vacant.
    #[test]
    fn memoryless_churn_keeps_the_table_near_the_live_population() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const LIVE: usize = 100_000;
        let mut table = IdTable::with_live(LIVE, LIVE);
        let mut live: Vec<ClientId> = (0..LIVE as ClientId).collect();
        let mut rng = StdRng::seed_from_u64(0x1d5);
        for _ in 0..10 * LIVE {
            let index = rng.gen_range(0..LIVE);
            table.depart(live[index]);
            let id = table.issue(false);
            table.set_index(id, index);
            live[index] = id;
        }
        let pages = table.resident_pages();
        assert!(
            pages > 4 * LIVE.div_ceil(PAGE),
            "the churn holds pages past the live range ({pages} resident)"
        );
        let per_live = table.bytes() as f64 / LIVE as f64;
        assert!(
            per_live < 12.0,
            "{per_live:.1} B per live id in {pages} resident pages"
        );
        let mut is_live = vec![false; 11 * LIVE];
        for (index, &id) in live.iter().enumerate() {
            assert_eq!(table.index(id), Some(index));
            is_live[id as usize] = true;
        }
        for (id, _) in is_live.iter().enumerate().filter(|(_, &l)| !l) {
            assert_eq!(table.state(id as ClientId), IdState::Vacant);
        }
        assert_eq!(table.census().map(|c| c.live), Some(LIVE));
    }

    /// Every mark round-trips through its entry, and departed ids stay
    /// vacant even while their page is resident.
    #[test]
    fn marks_round_trip() {
        let mut table = IdTable::with_live(3, 8);
        assert_eq!(
            table.state(1),
            IdState::Live {
                index: 1,
                leaving: false
            }
        );
        let joiner = table.issue(false);
        let waiter = table.issue(true);
        assert_eq!((joiner, waiter), (3, 4));
        assert_eq!(table.state(joiner), IdState::Joining { leaving: false });
        assert_eq!(table.state(waiter), IdState::Deferred);
        table.set_leaving(joiner);
        assert_eq!(table.state(joiner), IdState::Joining { leaving: true });
        table.set_index(joiner, 3);
        assert_eq!(
            table.state(joiner),
            IdState::Live {
                index: 3,
                leaving: true
            }
        );
        table.set_joining(waiter);
        assert_eq!(table.state(waiter), IdState::Joining { leaving: false });
        table.depart(1);
        assert_eq!(table.state(1), IdState::Vacant);
        assert_eq!(table.state(99), IdState::Vacant, "an unissued id is vacant");
        let census = table.census().expect("held counts agree");
        assert_eq!(
            census,
            IdCensus {
                live: 3,
                joining: 1,
                deferred: 0,
                leaving: 1
            }
        );
    }
}
