//! The contact layer (the paper's RAP, GreC's per-client rule): each
//! client's contact server, the relays booked through each server, and
//! the unserved violators with their rescue certificates.
//!
//! Every contact decision is GreC's rule over one full `C^R` row from
//! the relay kernel ([`CapInstance::relay_costs_into`]). A violator left
//! unserved keeps that row's verdict as a **rescue certificate**: the
//! servers cheaper than its target. The violator rescan ANDs it with the
//! zone's live fit mask (the servers with room for one more relay) and
//! skips the retry, without reading the delay row, when nothing is
//! left; otherwise it picks over the intersection, which is exactly the
//! server the full scan would pick ([`Contacts::rescan_zone`]).

use super::books::LoadBooks;
use super::{InvariantViolation, ServeStats};
use dve_assign::CapInstance;

/// One word of a server bitset (rescue certificates and fit masks):
/// server `s` is bit `s % WORD_BITS` of word `s / WORD_BITS`.
type Word = u32;

/// Servers per bitset [`Word`].
const WORD_BITS: usize = Word::BITS as usize;

/// Sets server `s`'s bit.
fn set_bit(bits: &mut [Word], s: usize) {
    bits[s / WORD_BITS] |= 1 << (s % WORD_BITS);
}

/// Clears server `s`'s bit.
fn clear_bit(bits: &mut [Word], s: usize) {
    bits[s / WORD_BITS] &= !(1 << (s % WORD_BITS));
}

/// The indices of the set bits of a server bitset, ascending.
fn set_bits(bits: &[Word]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * WORD_BITS + bit
            })
        })
    })
}

/// GreC's per-client pick (Fig. 3) over a client's `C^R` row `costs`
/// for zone target `target`: the minimum (`C^R`, index) among the
/// ascending `candidates` other than the target that `fits`, strictly
/// cheaper than staying on the target — `None` when none is.
fn cheapest_relay(
    costs: &[f64],
    target: usize,
    candidates: impl IntoIterator<Item = usize>,
    fits: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best = (costs[target], target);
    for s in candidates {
        if s != target && costs[s] < best.0 && fits(s) {
            best = (costs[s], s);
        }
    }
    (best.1 != target).then_some(best.1)
}

/// The position books' "not listed" sentinel.
const NOT_LISTED: u32 = u32::MAX;

/// A list position as the `u32` position books store it. Each list
/// holds a client at most once, so a position is below the population
/// (`check_invariants`: `RelayList`, `UnservedList`), and the id table
/// refuses any client index from `0x7fff_fffd` up (`IdTable`): a
/// position never reaches [`NOT_LISTED`]. The conversion stays checked
/// so a broken book panics rather than aliasing the sentinel.
fn list_pos(pos: usize) -> u32 {
    match u32::try_from(pos) {
        Ok(p) if p != NOT_LISTED => p,
        _ => panic!("list position {pos} does not fit the u32 position books"),
    }
}

/// The client word's flag: set once the entry's certificate is written.
const CERTIFIED: Word = 1 << (WORD_BITS - 1);

/// Client index `c` as an unserved list's client word. The id table
/// refuses any client index from `0x7fff_fffd` up (`IdTable`, held to
/// the index → id map by `check_invariants`), so an index stays below
/// the [`CERTIFIED`] flag; the conversion stays checked so it never
/// silently sets the flag.
fn client_word(c: usize) -> Word {
    match Word::try_from(c) {
        Ok(word) if word & CERTIFIED == 0 => word,
        _ => panic!("client index {c} does not fit an unserved list's client word"),
    }
}

/// Every zone's unserved violators, each entry carrying its **rescue
/// certificate** `B_c`: the servers `s ≠ t` with `C^R(c, s, t) <
/// C^R(c, t, t)` for the zone's target `t`, one bit per server. Only
/// those servers can ever rescue `c`, and which of them fits is a
/// question about loads, not delays: `B_c` depends only on `c`'s delay
/// row and the target, so load and capacity changes leave it valid,
/// and it holds until the zone's target changes.
///
/// The pass that leaves a client unserved writes its `B_c`; an entry
/// listed without one (at boot, or a joiner or mover on arrival) is
/// uncertified until its next full pass. An entry is `stride` words of
/// its zone's one vector: the client word (the client's index, with
/// [`CERTIFIED`] set once the certificate is written), then the
/// certificate's `stride - 1` words. Entries are unordered and
/// swap-removed whole, so a certificate moves with its entry. A list
/// grows by doubling from four entries, so it reallocates exactly when
/// a plain index list would.
#[derive(Debug, Clone, Default)]
struct UnservedLists {
    /// Words per entry: the client word, then `⌈m / 32⌉` certificate
    /// words.
    stride: usize,
    /// Per zone, its entries back to back.
    zones: Vec<Vec<Word>>,
}

impl UnservedLists {
    /// Empty lists for `zones` zones over `servers` servers.
    fn new(zones: usize, servers: usize) -> UnservedLists {
        UnservedLists {
            stride: 1 + servers.div_ceil(WORD_BITS),
            zones: vec![Vec::new(); zones],
        }
    }

    /// [`Word`]s per server bitset: `⌈m / 32⌉`.
    fn words(&self) -> usize {
        self.stride - 1
    }

    /// Entries listed for zone `z`.
    fn len(&self, z: usize) -> usize {
        self.zones[z].len() / self.stride
    }

    /// The client of zone `z`'s entry `pos`.
    fn client(&self, z: usize, pos: usize) -> usize {
        (self.zones[z][pos * self.stride] & !CERTIFIED) as usize
    }

    /// Re-points zone `z`'s entry `pos` at client index `c` (a relocated
    /// client), keeping its certificate.
    fn set_client(&mut self, z: usize, pos: usize, c: usize) {
        let word = &mut self.zones[z][pos * self.stride];
        *word = (*word & CERTIFIED) | client_word(c);
    }

    /// Appends `c` to zone `z`'s list, uncertified.
    fn push(&mut self, z: usize, c: usize) {
        let list = &mut self.zones[z];
        if list.len() == list.capacity() {
            list.reserve_exact(list.capacity().max(4 * self.stride));
        }
        list.push(client_word(c));
        list.resize(list.len() + self.stride - 1, 0);
    }

    /// Swap-removes zone `z`'s entry `pos`, moving the last entry
    /// (certificate included) into it. Returns the client now at `pos`,
    /// if any.
    fn swap_remove(&mut self, z: usize, pos: usize) -> Option<usize> {
        let list = &mut self.zones[z];
        let last = list.len() - self.stride;
        list.copy_within(last.., pos * self.stride);
        list.truncate(last);
        (pos * self.stride < last).then(|| self.client(z, pos))
    }

    /// The certificate of zone `z`'s entry `pos`, when written.
    fn cert(&self, z: usize, pos: usize) -> Option<&[Word]> {
        let entry = &self.zones[z][pos * self.stride..(pos + 1) * self.stride];
        (entry[0] & CERTIFIED != 0).then(|| &entry[1..])
    }

    /// Writes the certificate of zone `z`'s entry `pos` from its
    /// client's `C^R` row toward `target`.
    fn certify(&mut self, z: usize, pos: usize, costs: &[f64], target: usize) {
        let direct = costs[target];
        let entry = &mut self.zones[z][pos * self.stride..(pos + 1) * self.stride];
        for (word, chunk) in entry[1..].iter_mut().zip(costs.chunks(WORD_BITS)) {
            *word = chunk.iter().enumerate().fold(0, |acc, (bit, &cost)| {
                acc | (Word::from(cost < direct) << bit)
            });
        }
        // `C^R(t) < C^R(t)` never holds: the target's bit is 0.
        entry[0] |= CERTIFIED;
    }

    /// Bytes allocated for certificate words across every zone.
    fn cert_bytes(&self) -> usize {
        let entries: usize = self.zones.iter().map(|l| l.capacity() / self.stride).sum();
        entries * (self.stride - 1) * size_of::<Word>()
    }
}

/// Client `c`'s rescue certificate toward `target`, from a full
/// `rap_cost` pass: bit `s` set iff `s != target` and `C^R(c, s,
/// target) < C^R(c, target, target)`.
fn fresh_certificate(inst: &CapInstance, c: usize, target: usize) -> Vec<Word> {
    let m = inst.num_servers();
    let direct = inst.rap_cost(c, target, target);
    let mut cert = vec![0; m.div_ceil(WORD_BITS)];
    for s in (0..m).filter(|&s| s != target) {
        if inst.rap_cost(c, s, target) < direct {
            set_bit(&mut cert, s);
        }
    }
    cert
}

/// The contact layer's books: contacts, shed lists, unserved lists and
/// the two position books, plus the relay kernel's recycled buffers.
/// Methods take the instance, the zone targets and the load books they
/// read or book against.
#[derive(Debug)]
pub(super) struct Contacts {
    /// Each client's contact server (indexed like the instance).
    contact_of_client: Vec<usize>,
    /// Clients currently relayed through each server — the shed list
    /// the scoped evacuation re-decides when forwarding growth overloads
    /// a server. Unordered; entries are swap-removed.
    relayed_of_server: Vec<Vec<usize>>,
    /// Per-zone **unserved violators**: members beyond the delay bound
    /// of their zone's target whose contact still *is* that target (no
    /// relay found yet) — exactly the set the violator rescan retries —
    /// each with its rescue certificate. Maintained incrementally, so
    /// the rescan never sweeps a full zone membership.
    unserved: UnservedLists,
    /// Position of each client in its zone's unserved list
    /// ([`NOT_LISTED`] when not listed) — O(1) membership and removal.
    unserved_pos: Vec<u32>,
    /// Position of each client in its contact's shed list
    /// ([`NOT_LISTED`] when not relayed) — O(1) removal, where a flash
    /// crowd's hot zone can relay thousands of clients through the same
    /// few servers. It is also the relay mark: a client is relayed
    /// exactly when it is listed (`contact != target` is briefly wrong
    /// while a zone migrates).
    relay_pos_server: Vec<u32>,
    /// The relay kernel's `C^R` row (length m).
    costs: Vec<f64>,
    /// The rescan's live fit mask of the zone being swept.
    fit: Vec<Word>,
    /// The rescan's per-entry candidate set: certificate ∩ fit mask.
    live: Vec<Word>,
}

impl Contacts {
    /// Books GreC's boot contacts: the shed and unserved lists, each in
    /// index order. The position books get the capacity of `contacts`,
    /// so the joins it has room for grow no book.
    pub(super) fn boot(inst: &CapInstance, targets: &[usize], contacts: Vec<usize>) -> Contacts {
        let (k, m) = (inst.num_clients(), inst.num_servers());
        let capacity = contacts.capacity();
        let mut books = Contacts {
            contact_of_client: contacts,
            relayed_of_server: vec![Vec::new(); m],
            unserved: UnservedLists::new(inst.num_zones(), m),
            unserved_pos: Vec::with_capacity(capacity),
            relay_pos_server: Vec::with_capacity(capacity),
            costs: Vec::new(),
            fit: Vec::new(),
            live: Vec::new(),
        };
        books.unserved_pos.resize(k, NOT_LISTED);
        books.relay_pos_server.resize(k, NOT_LISTED);
        for c in 0..k {
            let contact = books.contact_of_client[c];
            let z = inst.zone_of(c);
            let target = targets[z];
            if contact != target {
                books.relay_pos_server[c] = list_pos(books.relayed_of_server[contact].len());
                books.relayed_of_server[contact].push(c);
            } else if inst.obs_cs(c, target) > inst.delay_bound() {
                books.mark_unserved(z, c);
            }
        }
        books
    }

    /// Every client's contact, indexed like the instance.
    pub(super) fn as_slice(&self) -> &[usize] {
        &self.contact_of_client
    }

    /// Bytes allocated for rescue certificates.
    pub(super) fn cert_bytes(&self) -> usize {
        self.unserved.cert_bytes()
    }

    /// The client last on server `s`'s shed list, if any.
    pub(super) fn last_relayed(&self, s: usize) -> Option<usize> {
        self.relayed_of_server[s].last().copied()
    }

    /// Books joiner `c`, the newest index, in zone `zone` on its target:
    /// unserved when the target is beyond the delay bound.
    pub(super) fn join(&mut self, inst: &CapInstance, c: usize, zone: usize, target: usize) {
        self.contact_of_client.push(target);
        self.unserved_pos.push(NOT_LISTED);
        self.relay_pos_server.push(NOT_LISTED);
        if inst.obs_cs(c, target) > inst.delay_bound() {
            self.mark_unserved(zone, c);
        }
    }

    /// Takes departing client `c` of zone `zone` off the lists and its
    /// relay off the books. The instance still holds `c`.
    pub(super) fn depart(&mut self, c: usize, zone: usize, books: &mut LoadBooks) {
        self.clear_unserved(zone, c);
        self.unrelay(c, zone, books);
    }

    /// After the instance's swap-remove of departed client `c`: when
    /// `relocated` names the old last index and its zone, that client
    /// takes index `c`, keeping its contact, its shed-list entry and its
    /// unserved entry (certificate included), re-keyed to `c`. Then
    /// every per-client book shrinks to the population `k`.
    pub(super) fn backfill(&mut self, c: usize, relocated: Option<(usize, usize)>, k: usize) {
        if let Some((last, zone)) = relocated {
            self.contact_of_client[c] = self.contact_of_client[last];
            let pos = self.relay_pos_server[last];
            self.relay_pos_server[c] = pos;
            if pos != NOT_LISTED {
                self.relayed_of_server[self.contact_of_client[c]][pos as usize] = c;
            }
            let pos = self.unserved_pos[last];
            self.unserved_pos[c] = pos;
            if pos != NOT_LISTED {
                self.unserved.set_client(zone, pos as usize, c);
            }
        }
        self.contact_of_client.truncate(k);
        self.unserved_pos.truncate(k);
        self.relay_pos_server.truncate(k);
    }

    /// Takes mover `c` out of zone `from` before the instance moves it to
    /// a zone whose target is `target`: off `from`'s unserved list, and
    /// off its relay when its kept contact hosts the new zone.
    pub(super) fn leave_zone(
        &mut self,
        c: usize,
        from: usize,
        target: usize,
        books: &mut LoadBooks,
    ) {
        self.clear_unserved(from, c);
        if self.contact_of_client[c] == target {
            self.unrelay(c, from, books);
        }
    }

    /// Books mover `c`, now in zone `zone` (target `target`), after the
    /// instance moved it out of `from`. The mover keeps its contact
    /// session (GreC-style forwarding) until the contact repair
    /// re-decides it.
    pub(super) fn enter_zone(
        &mut self,
        inst: &CapInstance,
        c: usize,
        from: usize,
        zone: usize,
        target: usize,
        books: &mut LoadBooks,
    ) {
        let contact = self.contact_of_client[c];
        if self.relay_pos_server[c] != NOT_LISTED {
            // A relay travels with its mover, at the new zone's rate.
            books.unbook_relay(from, contact);
            books.book_relay(zone, contact);
        } else if contact != target {
            // A direct mover whose kept contact differs from the new
            // zone's target has just *become* relayed.
            self.book_relay(c, zone, contact, books);
        } else if inst.obs_cs(c, target) > inst.delay_bound() {
            // On its new target but beyond the bound: eligible for the
            // violator rescan until a relay is found.
            self.mark_unserved(zone, c);
        }
    }

    /// GreC's per-client rule: stay on the target when within bound,
    /// otherwise route through the contact minimising `C^R` among the
    /// `candidates` (ascending) with forwarding capacity (ties: lowest
    /// index; the target itself always fits at zero overhead). The
    /// relay kernel always evaluates the full `C^R` row; the candidates
    /// only restrict which servers may be picked, and the fit check here
    /// stays authoritative against loads booked since the caller chose
    /// them. A client left unserved gets its rescue certificate from the
    /// same row. Returns whether `c` ended relayed.
    pub(super) fn decide_among(
        &mut self,
        inst: &CapInstance,
        targets: &[usize],
        books: &mut LoadBooks,
        c: usize,
        candidates: impl IntoIterator<Item = usize>,
    ) -> bool {
        let z = inst.zone_of(c);
        let target = targets[z];
        if self.release_to_target(inst, books, c, z, target) {
            return false;
        }
        let overhead = books.relay_rate(z);
        let mut costs = std::mem::take(&mut self.costs);
        costs.resize(inst.num_servers(), 0.0);
        inst.relay_costs_into(c, target, &mut costs);
        let pick = cheapest_relay(&costs, target, candidates, |s| books.fits(s, overhead));
        match pick {
            Some(s) => {
                self.book_relay(c, z, s, books);
                self.clear_unserved(z, c);
            }
            None => {
                self.mark_unserved(z, c);
                let pos = self.unserved_pos[c] as usize;
                self.unserved.certify(z, pos, &costs, target);
            }
        }
        self.costs = costs;
        pick.is_some()
    }

    /// The violator rescan of one zone: every listed unserved member
    /// retries a relay, under GreC's rule.
    ///
    /// The relay overhead `R^C` is uniform across a zone's members, so
    /// which servers could host a relay at all is a per-zone question,
    /// answered once up front as the **live fit mask**: the servers
    /// other than the target with room for one more relay. An empty
    /// mask skips the whole sweep, and a mask that empties ends it,
    /// which keeps a saturated flash crowd (thousands of unrescuable
    /// violators in one zone, touched by every batch) from costing
    /// O(violators × servers) per flush. Loads only grow while the
    /// sweep books relays, so clearing a server's bit once a booking
    /// leaves it without room keeps the mask exact for the rest of the
    /// sweep.
    ///
    /// A certified entry ANDs its rescue certificate with the mask. An
    /// empty result means no fitting server beats staying on the
    /// target, so the retry would fail and change nothing: it is
    /// skipped without reading the delay row. Otherwise the pick runs
    /// over exactly that intersection and always rescues, choosing the
    /// server the full scan would. An uncertified entry takes one full
    /// pass over the mask, which certifies it if it fails.
    pub(super) fn rescan_zone(
        &mut self,
        inst: &CapInstance,
        targets: &[usize],
        books: &mut LoadBooks,
        stats: &mut ServeStats,
        z: usize,
    ) {
        if self.unserved.len(z) == 0 {
            return;
        }
        let target = targets[z];
        let overhead = books.relay_rate(z);
        let words = self.unserved.words();
        let mut fit = std::mem::take(&mut self.fit);
        fit.clear();
        fit.resize(words, 0);
        for s in 0..inst.num_servers() {
            if s != target && books.fits(s, overhead) {
                set_bit(&mut fit, s);
            }
        }
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        live.resize(words, 0);
        // A rescued entry is swap-removed from under the cursor
        // (revisit the slot); an unrescued one stays put (advance).
        let mut i = 0;
        while i < self.unserved.len(z) && fit.iter().any(|&w| w != 0) {
            let c = self.unserved.client(z, i);
            stats.rescan_retries += 1;
            let relayed = match self.unserved.cert(z, i) {
                Some(cert) => {
                    for ((l, &b), &f) in live.iter_mut().zip(cert).zip(&fit) {
                        *l = b & f;
                    }
                    if live.iter().all(|&w| w == 0) {
                        stats.rescan_skipped += 1;
                        i += 1;
                        continue;
                    }
                    self.decide_among(inst, targets, books, c, set_bits(&live))
                }
                None => self.decide_among(inst, targets, books, c, set_bits(&fit)),
            };
            if relayed {
                stats.rescan_rescued += 1;
                let s = self.contact_of_client[c];
                if !books.fits(s, overhead) {
                    clear_bit(&mut fit, s);
                }
            } else {
                i += 1;
            }
        }
        self.fit = fit;
        self.live = live;
    }

    /// Takes `c`'s relay (if any) off the books and puts it back on
    /// `target`, its zone `z`'s target. Returns `true` when the target is
    /// within the delay bound (`c` is served directly and leaves the
    /// unserved list), `false` when `c` still needs a relay.
    #[inline]
    fn release_to_target(
        &mut self,
        inst: &CapInstance,
        books: &mut LoadBooks,
        c: usize,
        z: usize,
        target: usize,
    ) -> bool {
        self.unrelay(c, z, books);
        self.contact_of_client[c] = target;
        let direct = inst.obs_cs(c, target) <= inst.delay_bound();
        if direct {
            self.clear_unserved(z, c);
        }
        direct
    }

    /// Books `c`, a member of zone `z`, as relayed through `contact`:
    /// its contact, its shed-list entry with position, and one relay of
    /// `z` through `contact` at the zone's booked rate.
    #[inline]
    fn book_relay(&mut self, c: usize, z: usize, contact: usize, books: &mut LoadBooks) {
        self.contact_of_client[c] = contact;
        books.book_relay(z, contact);
        self.relay_pos_server[c] = list_pos(self.relayed_of_server[contact].len());
        self.relayed_of_server[contact].push(c);
    }

    /// Takes `c`'s relay off the books when it is relayed: its shed-list
    /// entry, and one relay of its zone `z` through its contact.
    fn unrelay(&mut self, c: usize, z: usize, books: &mut LoadBooks) {
        let pos = self.relay_pos_server[c];
        if pos == NOT_LISTED {
            return;
        }
        let contact = self.contact_of_client[c];
        let list = &mut self.relayed_of_server[contact];
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.relay_pos_server[moved] = pos;
        }
        self.relay_pos_server[c] = NOT_LISTED;
        books.unbook_relay(z, contact);
    }

    /// Adds `c` to zone `z`'s unserved list, uncertified (no-op when
    /// already listed). `z` must be `c`'s current zone.
    fn mark_unserved(&mut self, z: usize, c: usize) {
        if self.unserved_pos[c] == NOT_LISTED {
            self.unserved_pos[c] = list_pos(self.unserved.len(z));
            self.unserved.push(z, c);
        }
    }

    /// Removes `c` from zone `z`'s unserved list (no-op when not
    /// listed). `z` must be the zone whose list holds `c`.
    fn clear_unserved(&mut self, z: usize, c: usize) {
        let pos = self.unserved_pos[c];
        if pos != NOT_LISTED {
            self.unserved_pos[c] = NOT_LISTED;
            if let Some(moved) = self.unserved.swap_remove(z, pos as usize) {
                self.unserved_pos[moved] = pos;
            }
        }
    }

    /// Whether every per-client book holds `k` clients and every contact
    /// names one of `m` servers.
    pub(super) fn check_shape(&self, k: usize, m: usize) -> Result<(), InvariantViolation> {
        let lengths = [
            self.contact_of_client.len(),
            self.unserved_pos.len(),
            self.relay_pos_server.len(),
        ];
        if lengths.iter().any(|&len| len != k) || self.contact_of_client.iter().any(|&s| s >= m) {
            return Err(InvariantViolation::Shape);
        }
        Ok(())
    }

    /// Checks the shed lists and relay marks against the contacts, and
    /// the unserved lists against the on-target violators, with their
    /// positions and every written certificate.
    pub(super) fn check(
        &self,
        inst: &CapInstance,
        targets: &[usize],
    ) -> Result<(), InvariantViolation> {
        let k = inst.num_clients();
        // Shed lists: exactly the relayed clients, each once, on its
        // contact's list at its recorded position.
        let mut listed = 0;
        for (s, list) in self.relayed_of_server.iter().enumerate() {
            for (pos, &c) in list.iter().enumerate() {
                if c >= k
                    || self.contact_of_client[c] != s
                    || self.relay_pos_server[c] as usize != pos
                {
                    return Err(InvariantViolation::RelayList { client: c });
                }
            }
            listed += list.len();
        }
        let mut relayed = 0;
        for c in 0..k {
            let marked = self.relay_pos_server[c] != NOT_LISTED;
            if marked != (self.contact_of_client[c] != targets[inst.zone_of(c)]) {
                return Err(InvariantViolation::RelayList { client: c });
            }
            relayed += usize::from(marked);
        }
        if listed != relayed {
            return Err(InvariantViolation::RelayList { client: k });
        }
        let lists = &self.unserved;
        for z in 0..inst.num_zones() {
            let target = targets[z];
            let mut expected: Vec<usize> = inst
                .clients_in_zone(z)
                .iter()
                .copied()
                .filter(|&c| {
                    inst.obs_cs(c, target) > inst.delay_bound()
                        && self.contact_of_client[c] == target
                })
                .collect();
            let mut got: Vec<usize> = (0..lists.len(z)).map(|pos| lists.client(z, pos)).collect();
            expected.sort_unstable();
            got.sort_unstable();
            if got != expected || !lists.zones[z].len().is_multiple_of(lists.stride) {
                return Err(InvariantViolation::UnservedList { zone: z });
            }
            for pos in 0..lists.len(z) {
                let c = lists.client(z, pos);
                if self.unserved_pos[c] as usize != pos {
                    return Err(InvariantViolation::UnservedList { zone: z });
                }
                if let Some(cert) = lists.cert(z, pos) {
                    if cert != fresh_certificate(inst, c, target).as_slice() {
                        return Err(InvariantViolation::Certificate { zone: z, client: c });
                    }
                }
            }
        }
        let listed = (0..inst.num_zones()).map(|z| lists.len(z)).sum::<usize>();
        let marked = self
            .unserved_pos
            .iter()
            .filter(|&&p| p != NOT_LISTED)
            .count();
        if listed != marked {
            return Err(InvariantViolation::UnservedList {
                zone: inst.num_zones(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
impl Contacts {
    /// The listed unserved violators, zone by zone.
    pub(super) fn listed_unserved(&self) -> Vec<usize> {
        let lists = &self.unserved;
        (0..lists.zones.len())
            .flat_map(|z| (0..lists.len(z)).map(move |pos| lists.client(z, pos)))
            .collect()
    }

    /// Whether `c` is on its zone's unserved list.
    pub(super) fn is_unserved(&self, c: usize) -> bool {
        self.unserved_pos[c] != NOT_LISTED
    }

    /// Whether every listed unserved violator carries a certificate.
    pub(super) fn all_certified(&self) -> bool {
        let lists = &self.unserved;
        (0..lists.zones.len()).all(|z| (0..lists.len(z)).all(|pos| lists.cert(z, pos).is_some()))
    }

    /// The (address, capacity) of each per-client book, and the bytes
    /// each position book stores.
    pub(super) fn population_books(&self) -> ([(usize, usize); 3], [usize; 2]) {
        let at = |ptr: *const u8, capacity: usize| (ptr as usize, capacity);
        (
            [
                at(
                    self.contact_of_client.as_ptr().cast(),
                    self.contact_of_client.capacity(),
                ),
                at(
                    self.unserved_pos.as_ptr().cast(),
                    self.unserved_pos.capacity(),
                ),
                at(
                    self.relay_pos_server.as_ptr().cast(),
                    self.relay_pos_server.capacity(),
                ),
            ],
            [
                std::mem::size_of_val(self.unserved_pos.as_slice()),
                std::mem::size_of_val(self.relay_pos_server.as_slice()),
            ],
        )
    }

    /// For every certified unserved entry, under the live loads of
    /// `books`: the certificate ANDed with the zone's fit mask is empty
    /// exactly when GreC's full `rap_cost` scan finds no relay, and
    /// otherwise the pick over the intersection is the full scan's
    /// server. The fits are judged in bits/s, as the `f64` books judged
    /// them, and must equal the unit verdicts. Returns how many entries
    /// (skipped, rescued) the certificates decided.
    pub(super) fn check_certificates_against_full_scan(
        &self,
        inst: &CapInstance,
        targets: &[usize],
        books: &LoadBooks,
    ) -> (usize, usize) {
        let (m, words) = (inst.num_servers(), self.unserved.words());
        let lists = &self.unserved;
        let mut costs = vec![0.0; m];
        let (mut skipped, mut rescued) = (0, 0);
        for z in 0..inst.num_zones() {
            if lists.len(z) == 0 {
                continue;
            }
            let member = lists.client(z, 0);
            let target = targets[z];
            let overhead = inst.client_forwarding_bps(member);
            let fits = |s: usize| {
                let verdict = books.load_bps(s) + overhead <= inst.capacity(s) + 1e-9;
                assert_eq!(verdict, books.fits(s, books.relay_rate(z)));
                verdict
            };
            let mut fit = vec![0; words];
            for s in (0..m).filter(|&s| s != target && fits(s)) {
                set_bit(&mut fit, s);
            }
            for pos in 0..lists.len(z) {
                let c = lists.client(z, pos);
                let Some(cert) = lists.cert(z, pos) else {
                    continue;
                };
                let mut full = (inst.rap_cost(c, target, target), target);
                for s in (0..m).filter(|&s| s != target && fits(s)) {
                    let cost = inst.rap_cost(c, s, target);
                    if cost < full.0 {
                        full = (cost, s);
                    }
                }
                let live: Vec<Word> = cert.iter().zip(&fit).map(|(b, f)| b & f).collect();
                let skip = live.iter().all(|&w| w == 0);
                assert_eq!(
                    skip,
                    full.1 == target,
                    "zone {z}: client {c}'s certificate skips iff the full scan fails"
                );
                if skip {
                    skipped += 1;
                } else {
                    inst.relay_costs_into(c, target, &mut costs);
                    let pick = cheapest_relay(&costs, target, set_bits(&live), fits);
                    assert_eq!(pick, Some(full.1), "zone {z}: client {c} rescued elsewhere");
                    rescued += 1;
                }
            }
        }
        (skipped, rescued)
    }
}
