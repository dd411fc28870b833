//! The request data model — the paper's Table 2, extended with SLA metadata.

use relalg::{DataType, Field, Schema, Symbol, Table, Tuple, Value};
use std::fmt;
use std::sync::OnceLock;
use txnstore::{Statement, StatementKind, TxnId};

/// Operation type of a request (the paper's `Operation` attribute:
/// read / write / abort / commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Read a database object.
    Read,
    /// Write a database object.
    Write,
    /// Commit the issuing transaction.
    Commit,
    /// Abort the issuing transaction.
    Abort,
}

impl Operation {
    /// The single-letter code stored in the request relations (`r`, `w`,
    /// `c`, `a`), matching the constants in the paper's Listing 1.
    pub fn code(self) -> &'static str {
        match self {
            Operation::Read => "r",
            Operation::Write => "w",
            Operation::Commit => "c",
            Operation::Abort => "a",
        }
    }

    /// The interned symbol of [`Operation::code`] — pre-interned once per
    /// process, so the row-building hot path never touches the interner's
    /// lookup map.
    pub fn symbol(self) -> Symbol {
        static SYMBOLS: OnceLock<[Symbol; 4]> = OnceLock::new();
        let symbols = SYMBOLS.get_or_init(|| {
            [
                Symbol::intern("r"),
                Symbol::intern("w"),
                Symbol::intern("c"),
                Symbol::intern("a"),
            ]
        });
        symbols[self as usize]
    }

    /// Parse from the single-letter code.
    pub fn from_code(code: &str) -> Option<Operation> {
        match code {
            "r" => Some(Operation::Read),
            "w" => Some(Operation::Write),
            "c" => Some(Operation::Commit),
            "a" => Some(Operation::Abort),
            _ => None,
        }
    }

    /// Whether this operation terminates its transaction.
    pub fn is_terminal(self) -> bool {
        matches!(self, Operation::Commit | Operation::Abort)
    }

    /// Whether this operation accesses a database object.
    pub fn is_data(self) -> bool {
        !self.is_terminal()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// SLA metadata carried by a request when the workload has service classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaMeta {
    /// Numeric priority (higher = more important).
    pub priority: i64,
    /// Service class name (e.g. `premium`, `standard`, `free`).
    pub class: &'static str,
    /// Arrival time in virtual milliseconds.
    pub arrival_ms: u64,
    /// Absolute deadline in virtual milliseconds.
    pub deadline_ms: u64,
}

/// Identity of a request inside a scheduling round: the pair the paper's
/// Listing 1 manipulates (`TA`, `INTRATA`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey {
    /// Transaction number.
    pub ta: u64,
    /// Request number within the transaction.
    pub intra: u32,
}

/// A schedulable request — one row of the paper's `requests`/`history`/`rte`
/// relations.
///
/// `Copy`: every field is plain data (strings are interned
/// [`relalg::Symbol`]s), so requests move through queues, batches and pools
/// by memcpy with no heap traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Consecutive request number (`ID`).
    pub id: u64,
    /// Transaction number (`TA`).
    pub ta: u64,
    /// Request number within the transaction (`INTRATA`).
    pub intra: u32,
    /// Operation type.
    pub op: Operation,
    /// Object number (`Object`); terminal operations carry no object and use
    /// -1, mirroring a NULL-able column.
    pub object: i64,
    /// Optional SLA metadata.
    pub sla: Option<SlaMeta>,
    /// The payload to write for write requests (carried through to the
    /// server; not part of the scheduling relations).
    pub write_value: Option<Value>,
}

impl Request {
    /// Construct a data request.
    pub fn new(id: u64, ta: u64, intra: u32, op: Operation, object: i64) -> Self {
        Request {
            id,
            ta,
            intra,
            op,
            object,
            sla: None,
            write_value: None,
        }
    }

    /// Construct a read request.
    pub fn read(id: u64, ta: u64, intra: u32, object: i64) -> Self {
        Request::new(id, ta, intra, Operation::Read, object)
    }

    /// Construct a write request.
    pub fn write(id: u64, ta: u64, intra: u32, object: i64) -> Self {
        Request::new(id, ta, intra, Operation::Write, object)
    }

    /// Construct a commit request.
    pub fn commit(id: u64, ta: u64, intra: u32) -> Self {
        Request::new(id, ta, intra, Operation::Commit, -1)
    }

    /// Construct an abort request.
    pub fn abort(id: u64, ta: u64, intra: u32) -> Self {
        Request::new(id, ta, intra, Operation::Abort, -1)
    }

    /// Attach SLA metadata.
    pub fn with_sla(mut self, sla: SlaMeta) -> Self {
        self.sla = Some(sla);
        self
    }

    /// The request's key (`TA`, `INTRATA`).
    pub fn key(&self) -> RequestKey {
        RequestKey {
            ta: self.ta,
            intra: self.intra,
        }
    }

    /// Build a request from a [`txnstore::Statement`], assigning it the given
    /// consecutive id.  This is how the middleware converts what clients send
    /// into rows of the pending-request relation.
    pub fn from_statement(id: u64, stmt: &Statement) -> Self {
        let (op, object, write_value) = match &stmt.kind {
            StatementKind::Select { key } => (Operation::Read, *key, None),
            StatementKind::Update { key, value } => (Operation::Write, *key, Some(*value)),
            StatementKind::Commit => (Operation::Commit, -1, None),
            StatementKind::Abort => (Operation::Abort, -1, None),
        };
        Request {
            id,
            ta: stmt.txn.0,
            intra: stmt.intra,
            op,
            object,
            sla: None,
            write_value,
        }
    }

    /// Convert back into a [`txnstore::Statement`] targeting `table`, for
    /// dispatch to the server.
    pub fn to_statement(&self, table: &str) -> Statement {
        let txn = TxnId(self.ta);
        match self.op {
            Operation::Read => Statement::select(txn, self.intra, table, self.object),
            Operation::Write => Statement::update(
                txn,
                self.intra,
                table,
                self.object,
                self.write_value.unwrap_or(Value::Int(self.object)),
            ),
            Operation::Commit => Statement::commit(txn, self.intra, table),
            Operation::Abort => Statement::abort(txn, self.intra, table),
        }
    }

    /// The schema of the `requests`, `history` and `rte` relations — exactly
    /// the paper's Table 2.
    pub fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("ta", DataType::Int),
            Field::new("intrata", DataType::Int),
            Field::new("operation", DataType::Str),
            Field::new("object", DataType::Int),
        ])
    }

    /// The schema of the auxiliary `sla` relation used by SLA protocols:
    /// `(ta, class, priority, arrival_ms, deadline_ms)`.
    pub fn sla_schema() -> Schema {
        Schema::new(vec![
            Field::new("ta", DataType::Int),
            Field::new("class", DataType::Str),
            Field::new("priority", DataType::Int),
            Field::new("arrival_ms", DataType::Int),
            Field::new("deadline_ms", DataType::Int),
        ])
    }

    /// Render as a tuple of [`Request::schema`].  Allocation-free: the
    /// operation code is pre-interned and the row is built inline.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::from_slice(&[
            Value::Int(self.id as i64),
            Value::Int(self.ta as i64),
            Value::Int(i64::from(self.intra)),
            Value::Str(self.op.symbol()),
            Value::Int(self.object),
        ])
    }

    /// Build the relation `name` of [`Request::schema`] with one row per
    /// request, in the order given — the relational view of the pending and
    /// history stores, built only when a consumer asks for it.
    pub(crate) fn relation<'a>(
        name: &str,
        requests: impl IntoIterator<Item = &'a Request>,
    ) -> Table {
        #[cfg(test)]
        RELATIONS_BUILT.with(|built| built.set(built.get() + 1));
        let rows = requests.into_iter().map(Request::to_tuple).collect();
        Table::with_rows(name, Request::schema(), rows)
            .expect("request rows always match the request schema")
    }

    /// Render the SLA row `(ta, class, priority, arrival, deadline)` if SLA
    /// metadata is attached.
    pub fn to_sla_tuple(&self) -> Option<Tuple> {
        self.sla.map(|s| {
            Tuple::from_slice(&[
                Value::Int(self.ta as i64),
                Value::str(s.class),
                Value::Int(s.priority),
                Value::Int(s.arrival_ms as i64),
                Value::Int(s.deadline_ms as i64),
            ])
        })
    }

    /// Rebuild a request from a tuple of [`Request::schema`].  The payload
    /// (`write_value`) and SLA metadata are not stored in the relation and
    /// are therefore absent from the reconstruction.
    pub fn from_tuple(tuple: &Tuple) -> Option<Request> {
        let id = tuple.try_get(0)?.as_int()?;
        let ta = tuple.try_get(1)?.as_int()?;
        let intra = tuple.try_get(2)?.as_int()?;
        let op = Operation::from_code(tuple.try_get(3)?.as_str()?)?;
        let object = tuple.try_get(4)?.as_int()?;
        Some(Request {
            id: id as u64,
            ta: ta as u64,
            intra: intra as u32,
            op,
            object,
            sla: None,
            write_value: None,
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Relations [`Request::relation`] built on this thread — how the tests
    /// check that a built-in round never materialises one.
    pub(crate) static RELATIONS_BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} T{}[{}] {} obj={}",
            self.id, self.ta, self.intra, self.op, self.object
        )
    }
}

/// The object footprint of a group of requests: the distinct objects its data
/// operations touch, in ascending order.  Terminal operations (commit/abort)
/// carry no object and do not contribute.  This is what a shard router
/// partitions on: a transaction whose footprint maps to a single shard can be
/// scheduled entirely by that shard's rule, while a spanning footprint forces
/// a two-phase escalation over the shards it touches.
pub fn footprint<'a>(requests: impl IntoIterator<Item = &'a Request>) -> Vec<i64> {
    let mut objects: Vec<i64> = requests
        .into_iter()
        .filter(|r| r.op.is_data())
        .map(|r| r.object)
        .collect();
    objects.sort_unstable();
    objects.dedup();
    objects
}

/// The home shard of an object under `shards`-way partitioning.
///
/// Fibonacci (multiplicative) hashing of the object id: cheap, deterministic
/// across processes, and it scatters the sequential object ids produced by
/// the workload generators evenly, so uniform workloads load shards evenly.
/// Every component that partitions by object — the shard router, the
/// workload generator's `cross_shard_fraction` knob, the scaling bench —
/// must agree on this single function.
pub fn shard_of(object: i64, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    if shards == 1 {
        return 0;
    }
    let h = (object as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // Multiply-shift onto [0, shards): avoids the modulo's bias toward low
    // shards and costs one multiplication.
    (((h >> 32) * shards as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_codes_match_listing_1() {
        assert_eq!(Operation::Read.code(), "r");
        assert_eq!(Operation::Write.code(), "w");
        assert_eq!(Operation::Commit.code(), "c");
        assert_eq!(Operation::Abort.code(), "a");
        for op in [
            Operation::Read,
            Operation::Write,
            Operation::Commit,
            Operation::Abort,
        ] {
            assert_eq!(Operation::from_code(op.code()), Some(op));
        }
        assert_eq!(Operation::from_code("x"), None);
        assert!(Operation::Commit.is_terminal());
        assert!(Operation::Read.is_data());
    }

    #[test]
    fn schema_matches_table_2() {
        let s = Request::schema();
        assert_eq!(
            s.names(),
            vec!["id", "ta", "intrata", "operation", "object"]
        );
        let sla = Request::sla_schema();
        assert_eq!(sla.len(), 5);
        assert_eq!(sla.names()[1], "class");
    }

    #[test]
    fn tuple_round_trip() {
        let r = Request::write(7, 3, 2, 1234);
        let t = r.to_tuple();
        assert_eq!(t.arity(), 5);
        let back = Request::from_tuple(&t).unwrap();
        assert_eq!(back, r);
        // Terminal requests carry object -1.
        let c = Request::commit(8, 3, 3);
        assert_eq!(Request::from_tuple(&c.to_tuple()).unwrap().object, -1);
    }

    #[test]
    fn statement_round_trip() {
        let stmt = Statement::update(TxnId(9), 4, "bench", 55, 99);
        let r = Request::from_statement(100, &stmt);
        assert_eq!(r.ta, 9);
        assert_eq!(r.intra, 4);
        assert_eq!(r.op, Operation::Write);
        assert_eq!(r.object, 55);
        assert_eq!(r.write_value, Some(Value::Int(99)));
        let back = r.to_statement("bench");
        assert_eq!(back, stmt);

        let commit = Statement::commit(TxnId(9), 5, "bench");
        let rc = Request::from_statement(101, &commit);
        assert!(rc.op.is_terminal());
        assert_eq!(rc.to_statement("bench"), commit);
    }

    #[test]
    fn sla_metadata_and_tuple() {
        let r = Request::read(1, 2, 0, 10).with_sla(SlaMeta {
            priority: 3,
            class: "premium",
            arrival_ms: 100,
            deadline_ms: 150,
        });
        let t = r.to_sla_tuple().unwrap();
        assert_eq!(t.get(1).as_str(), Some("premium"));
        assert_eq!(t.get(2).as_int(), Some(3));
        assert!(Request::read(1, 2, 0, 10).to_sla_tuple().is_none());
    }

    #[test]
    fn key_and_display() {
        let r = Request::read(5, 2, 1, 77);
        assert_eq!(r.key(), RequestKey { ta: 2, intra: 1 });
        assert!(r.to_string().contains("T2[1]"));
    }

    #[test]
    fn footprint_collects_distinct_data_objects() {
        let txn = vec![
            Request::read(1, 1, 0, 9),
            Request::write(2, 1, 1, 3),
            Request::write(3, 1, 2, 9),
            Request::commit(4, 1, 3),
        ];
        assert_eq!(footprint(&txn), vec![3, 9]);
        assert!(footprint(&[Request::commit(1, 1, 0)]).is_empty());
    }

    #[test]
    fn shard_placement_is_deterministic_total_and_balanced() {
        for shards in [1usize, 2, 4, 8] {
            let mut counts = vec![0usize; shards];
            for object in 0..10_000i64 {
                let s = shard_of(object, shards);
                assert_eq!(s, shard_of(object, shards));
                counts[s] += 1;
            }
            let expected = 10_000 / shards;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    c > expected / 2 && c < expected * 2,
                    "shard {s}/{shards} unbalanced: {c} of 10000"
                );
            }
        }
        assert_eq!(shard_of(123, 1), 0);
    }
}
