//! Fact storage: indexed relations and the database of relations.
//!
//! A [`Relation`] stores each ground tuple once, as a [`relalg::Tuple`]
//! (inline up to arity 8), in a dense vector.  Beside the rows it keeps a
//! *membership* chain set — the dedup set, also what a negated atom probes —
//! and one hash index per column set the compiled rule plans join on (see
//! the `plan` module).  All of them are maintained on insert, retract and
//! clear, so a join is an index probe and never a scan of the relation.
//!
//! Chains are intrusive: every index keeps a `hash → first row` map plus
//! `next`/`prev` row-id arrays parallel to the row vector, so inserting a row
//! allocates nothing per key and unlinking one is O(1).  A retraction moves
//! the last row into the hole (rows stay dense); [`Relation::rows`] is
//! therefore in insertion order only while nothing has been retracted.

use crate::error::{DatalogError, DatalogResult};
use relalg::{Table, Tuple, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// End-of-chain marker in the `next`/`prev` arrays.
const NIL: u32 = u32::MAX;

/// Hasher for maps whose `u64` keys are already hashes.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Per-process hash seed, drawn once from the standard library's randomly
/// keyed hasher: row values arrive from clients, and a fixed multiplicative
/// hash would let crafted keys pile every row into one chain.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        use std::hash::BuildHasher;
        std::collections::hash_map::RandomState::new().hash_one(0x5eed_u64) | 1
    })
}

#[inline]
fn fold(state: u64, word: u64) -> u64 {
    let product = u128::from(state ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
    (product as u64) ^ ((product >> 64) as u64)
}

/// Hash a sequence of values.  With `JOIN` the hash follows
/// [`Value::sql_eq`] — integers and floats that compare equal hash equal —
/// so an index probe finds every row a join would match (candidates are
/// still verified, see [`Relation::probe`]).  Without it the hash separates
/// the variants, mirroring the derived `Hash` of [`Value`]: the membership
/// set keeps `1` and `1.0` apart exactly as the previous `HashSet` of rows
/// did.
#[inline]
fn hash_values<'v, const JOIN: bool>(values: impl Iterator<Item = &'v Value>) -> u64 {
    let mut state = seed();
    for value in values {
        let (tag, bits) = match *value {
            Value::Null => (0u64, 0u64),
            Value::Bool(b) => (1, u64::from(b)),
            Value::Int(i) if JOIN => (2, float_bits(i as f64)),
            Value::Int(i) => (2, i as u64),
            Value::Float(f) if JOIN => (2, float_bits(f)),
            Value::Float(f) => (3, f.to_bits()),
            Value::Str(s) => (4, u64::from(s.id())),
        };
        state = fold(fold(state, tag), bits);
    }
    state
}

/// `-0.0 == 0.0` under `sql_eq`, so both must hash alike.
#[inline]
fn float_bits(f: f64) -> u64 {
    if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

/// The hash an index probe is keyed by, over the key's values in the
/// index's column order.
#[inline]
pub(crate) fn join_hash<'v>(key: impl Iterator<Item = &'v Value>) -> u64 {
    hash_values::<true>(key)
}

/// Identity of two values, as membership has it (NULL is NULL): `==`, with
/// integers and interned strings — nearly every comparison — decided without
/// the detour through an ordering.
#[inline]
pub(crate) fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        _ => a == b,
    }
}

/// One family of intrusive doubly-linked chains over a relation's rows:
/// rows with the same key hash form one chain.
#[derive(Debug, Clone, Default)]
struct Chains {
    heads: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl Chains {
    fn first(&self, hash: u64) -> u32 {
        self.heads.get(&hash).copied().unwrap_or(NIL)
    }

    /// Link the row about to be pushed (its id is the current row count).
    fn push(&mut self, hash: u64) {
        let id = self.next.len() as u32;
        let old = self.heads.insert(hash, id).unwrap_or(NIL);
        if old != NIL {
            self.prev[old as usize] = id;
        }
        self.next.push(old);
        self.prev.push(NIL);
    }

    fn unlink(&mut self, hash: u64, id: u32) {
        let (p, n) = (self.prev[id as usize], self.next[id as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else if n != NIL {
            self.heads.insert(hash, n);
        } else {
            self.heads.remove(&hash);
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
    }

    /// The last row moves into the (already unlinked) slot `to`.
    fn relocate_last(&mut self, hash: u64, to: u32) {
        let from = self.next.len() - 1;
        let (p, n) = (self.prev[from], self.next[from]);
        self.prev[to as usize] = p;
        self.next[to as usize] = n;
        if p != NIL {
            self.next[p as usize] = to;
        } else {
            self.heads.insert(hash, to);
        }
        if n != NIL {
            self.prev[n as usize] = to;
        }
    }

    fn pop(&mut self) {
        self.next.pop();
        self.prev.pop();
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
        self.prev.clear();
    }
}

/// A join index: chains keyed by the join hash of a column set.
#[derive(Debug, Clone)]
struct Index {
    cols: Vec<usize>,
    chains: Chains,
}

impl Index {
    fn hash_row(&self, row: &[Value]) -> u64 {
        hash_values::<true>(self.cols.iter().map(|&c| &row[c]))
    }
}

/// The candidate rows of one index probe.
pub(crate) struct Probe<'a> {
    rows: &'a [Tuple],
    next: &'a [u32],
    id: u32,
}

impl<'a> Iterator for Probe<'a> {
    type Item = &'a Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a Tuple> {
        if self.id == NIL {
            return None;
        }
        let row = &self.rows[self.id as usize];
        self.id = self.next[self.id as usize];
        Some(row)
    }
}

/// A set of ground tuples for one predicate.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Arity of every stored row: fixed by the program that uses the
    /// predicate, or else by the first fact inserted.
    arity: Option<usize>,
    rows: Vec<Tuple>,
    members: Chains,
    indexes: Vec<Index>,
}

impl Relation {
    /// Create an empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Arity of the stored tuples, once known.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// Membership test (one hash probe).
    pub fn contains(&self, row: &[Value]) -> bool {
        self.find(row) != NIL
    }

    /// Where `row` is in [`Relation::rows`], if it is a member.
    pub(crate) fn position(&self, row: &[Value]) -> Option<u32> {
        Some(self.find(row)).filter(|&id| id != NIL)
    }

    /// All tuples — in insertion order as long as nothing was retracted.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Fix (or check) the arity; `Err(expected)` when it is already fixed
    /// to something else.
    pub(crate) fn pin_arity(&mut self, arity: usize) -> Result<(), usize> {
        match self.arity {
            Some(expected) if expected != arity => Err(expected),
            _ => {
                self.arity = Some(arity);
                Ok(())
            }
        }
    }

    fn find(&self, row: &[Value]) -> u32 {
        self.find_hashed(row, hash_values::<false>(row.iter()))
    }

    /// [`Self::find`] given the membership hash of `row`.
    fn find_hashed(&self, row: &[Value], hash: u64) -> u32 {
        let mut id = self.members.first(hash);
        while id != NIL {
            let stored = self.rows[id as usize].values();
            if stored.len() == row.len() && stored.iter().zip(row).all(|(a, b)| identical(a, b)) {
                return id;
            }
            id = self.members.next[id as usize];
        }
        NIL
    }

    /// Insert a tuple of the pinned arity; returns `true` if it was new.
    pub(crate) fn insert(&mut self, row: &[Value]) -> bool {
        debug_assert_eq!(self.arity, Some(row.len()), "arity is checked on entry");
        let hash = hash_values::<false>(row.iter());
        if self.find_hashed(row, hash) != NIL {
            return false;
        }
        assert!(self.rows.len() < NIL as usize, "row ids are 32 bits");
        self.members.push(hash);
        for index in &mut self.indexes {
            let hash = index.hash_row(row);
            index.chains.push(hash);
        }
        self.rows.push(Tuple::from_slice(row));
        true
    }

    /// Remove a tuple; returns `true` if it was present.  The last row
    /// takes its slot.
    pub(crate) fn retract(&mut self, row: &[Value]) -> bool {
        let hash = hash_values::<false>(row.iter());
        let id = self.find_hashed(row, hash);
        if id == NIL {
            return false;
        }
        let last = self.rows.len() - 1;
        self.members.unlink(hash, id);
        for index in &mut self.indexes {
            let hash = index.hash_row(row);
            index.chains.unlink(hash, id);
        }
        if id as usize != last {
            let moved = self.rows[last].values();
            self.members
                .relocate_last(hash_values::<false>(moved.iter()), id);
            for index in &mut self.indexes {
                let hash = index.hash_row(moved);
                index.chains.relocate_last(hash, id);
            }
        }
        self.members.pop();
        for index in &mut self.indexes {
            index.chains.pop();
        }
        self.rows.swap_remove(id as usize);
        true
    }

    /// Remove every tuple; arity and registered indexes stay.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.members.clear();
        for index in &mut self.indexes {
            index.chains.clear();
        }
    }

    /// Register a join index on `cols` (ascending), building it over the
    /// rows already present; returns its position for [`Relation::probe`].
    pub(crate) fn ensure_index(&mut self, cols: &[usize]) -> usize {
        if let Some(existing) = self.indexes.iter().position(|i| i.cols == cols) {
            return existing;
        }
        let mut index = Index {
            cols: cols.to_vec(),
            chains: Chains::default(),
        };
        for row in &self.rows {
            let hash = index.hash_row(row.values());
            index.chains.push(hash);
        }
        self.indexes.push(index);
        self.indexes.len() - 1
    }

    /// Rows whose indexed columns *may* equal the key hashed into `hash`
    /// (see [`join_hash`]): every row that joins is among them, but a hash
    /// collision can add others, so the caller still compares the columns.
    pub(crate) fn probe(&self, index: usize, hash: u64) -> Probe<'_> {
        let chains = &self.indexes[index].chains;
        Probe {
            rows: &self.rows,
            next: &chains.next,
            id: chains.first(hash),
        }
    }

    #[cfg(test)]
    pub(crate) fn index_columns(&self) -> Vec<Vec<usize>> {
        self.indexes.iter().map(|i| i.cols.clone()).collect()
    }
}

/// How one relation changed between two evaluations of a persistent
/// program: the rows it gained and the rows it lost, or — `whole` — that it
/// was rebuilt and no such account exists.  (Within an evaluation a delta is
/// a range of the row vector; across evaluations it cannot be, because a
/// retraction moves the last row into the hole.)
#[derive(Debug, Default)]
pub(crate) struct Delta {
    /// Rows present now that were absent at the last evaluation.
    pub plus: Vec<Tuple>,
    /// Rows absent now that were present at the last evaluation.
    pub minus: Vec<Tuple>,
    /// The relation was replaced or recomputed: treat everything as changed.
    pub whole: bool,
    /// A retraction was recorded after an insertion, so a row of `plus` may
    /// be gone again (an input between evaluations only; the evaluation
    /// settles it).
    pub unsettled: bool,
}

impl Delta {
    /// Whether the relation is known not to have changed.
    pub(crate) fn is_empty(&self) -> bool {
        !self.whole && self.plus.is_empty() && self.minus.is_empty()
    }

    /// Forget the change (the buffers keep their capacity).
    pub(crate) fn clear(&mut self) {
        self.plus.clear();
        self.minus.clear();
        self.whole = false;
        self.unsettled = false;
    }

    /// Record that `row` left the relation.
    pub(crate) fn retracted(&mut self, row: &[Value]) {
        if !self.whole {
            self.unsettled |= !self.plus.is_empty();
            self.minus.push(Tuple::from_slice(row));
        }
    }
}

/// A collection of named relations: the extensional database (facts supplied
/// by the caller) plus, after evaluation, the derived intensional relations.
///
/// Names are resolved to dense relation ids where facts and programs enter;
/// evaluation addresses relations by id only.
#[derive(Debug, Clone, Default)]
pub struct Database {
    ids: HashMap<String, usize>,
    names: Vec<String>,
    relations: Vec<Relation>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The id of `predicate`'s relation, created empty if absent.
    pub(crate) fn intern(&mut self, predicate: &str) -> usize {
        if let Some(&id) = self.ids.get(predicate) {
            return id;
        }
        let id = self.relations.len();
        self.ids.insert(predicate.to_string(), id);
        self.names.push(predicate.to_string());
        self.relations.push(Relation::new());
        id
    }

    pub(crate) fn id_of(&self, predicate: &str) -> Option<usize> {
        self.ids.get(predicate).copied()
    }

    #[cfg(test)]
    pub(crate) fn name_of(&self, id: usize) -> &str {
        &self.names[id]
    }

    pub(crate) fn rel(&self, id: usize) -> &Relation {
        &self.relations[id]
    }

    pub(crate) fn rel_mut(&mut self, id: usize) -> &mut Relation {
        &mut self.relations[id]
    }

    /// Number of relations (ids are `0..relation_count()`).
    pub(crate) fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Fix relation `id`'s arity, or report the facts already stored under
    /// another one.
    pub(crate) fn pin_arity(&mut self, id: usize, arity: usize) -> DatalogResult<()> {
        self.relations[id]
            .pin_arity(arity)
            .map_err(|stored| DatalogError::FactArity {
                predicate: self.names[id].clone(),
                expected: arity,
                got: stored,
            })
    }

    /// Check one incoming fact against relation `id`'s arity (fixing it if
    /// this is the first fact of a predicate no program has described).
    fn admit(&mut self, id: usize, got: usize) -> DatalogResult<()> {
        self.relations[id]
            .pin_arity(got)
            .map_err(|expected| DatalogError::FactArity {
                predicate: self.names[id].clone(),
                expected,
                got,
            })
    }

    /// Insert one fact into relation `id`; `Ok(true)` if it was new.
    pub(crate) fn insert(&mut self, id: usize, row: &[Value]) -> DatalogResult<bool> {
        self.admit(id, row.len())?;
        Ok(self.relations[id].insert(row))
    }

    /// Remove one fact from relation `id`; `Ok(true)` if it was there.
    pub(crate) fn retract(&mut self, id: usize, row: &[Value]) -> DatalogResult<bool> {
        self.admit(id, row.len())?;
        Ok(self.relations[id].retract(row))
    }

    /// Add a single fact; `Ok(true)` if it was new.  A fact whose arity
    /// differs from the predicate's other facts is rejected.
    pub fn add_fact(&mut self, predicate: &str, row: &[Value]) -> DatalogResult<bool> {
        let id = self.intern(predicate);
        self.insert(id, row)
    }

    /// Add many facts for one predicate.
    pub fn add_facts<R: AsRef<[Value]>>(
        &mut self,
        predicate: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> DatalogResult<()> {
        let id = self.intern(predicate);
        for row in rows {
            self.insert(id, row.as_ref())?;
        }
        Ok(())
    }

    /// Ensure a (possibly empty) relation exists for a predicate.
    pub fn declare(&mut self, predicate: &str) {
        self.intern(predicate);
    }

    /// Load every row of a [`relalg::Table`] as facts for `predicate`,
    /// borrowing the table's tuples.  The arity is checked once, against
    /// the table's schema.
    pub fn load_table(&mut self, predicate: &str, table: &Table) -> DatalogResult<()> {
        let id = self.intern(predicate);
        self.admit(id, table.schema().len())?;
        for row in table.rows() {
            self.relations[id].insert(row.values());
        }
        Ok(())
    }

    /// Look up a relation.
    pub fn relation(&self, predicate: &str) -> Option<&Relation> {
        self.id_of(predicate).map(|id| &self.relations[id])
    }

    /// Names of all stored relations, in creation order.
    pub fn predicates(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    /// Total number of facts across all relations.
    pub fn total_facts(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{Field, Schema};

    fn relation(arity: usize) -> Relation {
        let mut r = Relation::new();
        r.pin_arity(arity).unwrap();
        r
    }

    fn probe_ints(r: &Relation, index: usize, key: &[Value]) -> Vec<Vec<i64>> {
        let cols = r.index_columns()[index].clone();
        let mut rows: Vec<Vec<i64>> = r
            .probe(index, join_hash(key.iter()))
            .filter(|row| {
                cols.iter()
                    .zip(key)
                    .all(|(&c, k)| row.get(c).sql_eq(k) == Some(true))
            })
            .map(|row| row.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn relation_deduplicates_and_preserves_order() {
        let mut r = relation(1);
        assert!(r.insert(&[Value::Int(1)]));
        assert!(r.insert(&[Value::Int(2)]));
        assert!(!r.insert(&[Value::Int(1)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::Int(2)]));
        assert_eq!(r.rows()[0].values(), &[Value::Int(1)]);
    }

    #[test]
    fn indexes_follow_inserts_retractions_and_clear() {
        let mut r = relation(2);
        let by_second = r.ensure_index(&[1]);
        for (a, b) in [(1, 10), (2, 10), (3, 20), (4, 10)] {
            r.insert(&[a.into(), b.into()]);
        }
        assert_eq!(
            probe_ints(&r, by_second, &[10.into()]),
            vec![vec![1, 10], vec![2, 10], vec![4, 10]]
        );
        // An index registered late is built over the rows already there.
        let by_first = r.ensure_index(&[0]);
        assert_eq!(probe_ints(&r, by_first, &[3.into()]), vec![vec![3, 20]]);
        assert_eq!(r.ensure_index(&[1]), by_second, "no duplicate index");

        // Retract from the middle of a chain, the head, and the moved row.
        assert!(r.retract(&[2.into(), 10.into()]));
        assert!(!r.retract(&[2.into(), 10.into()]), "already gone");
        assert_eq!(
            probe_ints(&r, by_second, &[10.into()]),
            vec![vec![1, 10], vec![4, 10]]
        );
        assert!(r.retract(&[4.into(), 10.into()]));
        assert!(r.retract(&[1.into(), 10.into()]));
        assert!(probe_ints(&r, by_second, &[10.into()]).is_empty());
        assert_eq!(probe_ints(&r, by_second, &[20.into()]), vec![vec![3, 20]]);
        assert_eq!(probe_ints(&r, by_first, &[3.into()]), vec![vec![3, 20]]);

        // Retract to empty, then reuse: the indexes must still work.
        assert!(r.retract(&[3.into(), 20.into()]));
        assert!(r.is_empty());
        assert!(probe_ints(&r, by_second, &[20.into()]).is_empty());
        r.insert(&[7.into(), 20.into()]);
        assert_eq!(probe_ints(&r, by_second, &[20.into()]), vec![vec![7, 20]]);
        assert!(r.contains(&[7.into(), 20.into()]));

        r.clear();
        assert!(r.is_empty());
        assert!(!r.contains(&[7.into(), 20.into()]));
        assert!(probe_ints(&r, by_second, &[20.into()]).is_empty());
        r.insert(&[8.into(), 20.into()]);
        assert_eq!(probe_ints(&r, by_second, &[20.into()]), vec![vec![8, 20]]);
        assert_eq!(probe_ints(&r, by_first, &[8.into()]), vec![vec![8, 20]]);
    }

    #[test]
    fn join_probes_follow_sql_equality_membership_does_not() {
        let mut r = relation(1);
        let idx = r.ensure_index(&[0]);
        r.insert(&[Value::Int(1)]);
        r.insert(&[Value::Null]);
        // A float key finds the integer row (they are sql-equal) …
        let hits: Vec<_> = r
            .probe(idx, join_hash([Value::Float(1.0)].iter()))
            .filter(|row| row.get(0).sql_eq(&Value::Float(1.0)) == Some(true))
            .collect();
        assert_eq!(hits.len(), 1);
        // … NULL joins nothing, but is a member like any other value.
        assert!(r
            .probe(idx, join_hash([Value::Null].iter()))
            .all(|row| row.get(0).sql_eq(&Value::Null) != Some(true)));
        assert!(r.contains(&[Value::Null]));
        assert!(!r.contains(&[Value::Float(1.0)]));
    }

    #[test]
    fn database_fact_management() {
        let mut db = Database::new();
        db.add_fact("edge", &[1.into(), 2.into()]).unwrap();
        db.add_facts(
            "edge",
            vec![vec![2.into(), 3.into()], vec![1.into(), 2.into()]],
        )
        .unwrap();
        db.declare("empty");
        assert_eq!(db.relation("edge").unwrap().len(), 2);
        assert!(db.relation("empty").unwrap().is_empty());
        assert!(db.relation("missing").is_none());
        assert_eq!(db.total_facts(), 2);
        assert_eq!(db.predicates(), vec!["edge", "empty"]);
    }

    #[test]
    fn load_table_moves_rows_into_relation() {
        let schema = Schema::new(vec![Field::int("ta"), Field::str("op")]);
        let mut t = Table::new("requests", schema);
        t.push(relalg::tuple![1, "r"]).unwrap();
        t.push(relalg::tuple![2, "w"]).unwrap();
        let mut db = Database::new();
        db.load_table("pending", &t).unwrap();
        assert_eq!(db.relation("pending").unwrap().len(), 2);
        assert_eq!(db.relation("pending").unwrap().arity(), Some(2));
    }

    #[test]
    fn facts_of_another_arity_are_rejected_on_entry() {
        let mut db = Database::new();
        db.add_fact("p", &[1.into()]).unwrap();
        let err = db.add_fact("p", &[1.into(), 2.into()]).unwrap_err();
        assert_eq!(
            err,
            DatalogError::FactArity {
                predicate: "p".into(),
                expected: 1,
                got: 2
            }
        );
        assert_eq!(db.relation("p").unwrap().len(), 1);
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        let t = Table::new("p", schema);
        assert!(matches!(
            db.load_table("p", &t),
            Err(DatalogError::FactArity { .. })
        ));
    }
}
