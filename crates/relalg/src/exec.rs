//! Plan execution: a straightforward materialising evaluator.
//!
//! Every node produces an intermediate [`ResultSet`] (unnamed).  This is the
//! right trade-off for the declarative scheduler: its relations are a batch
//! of pending requests plus the relevant history, i.e. thousands of rows,
//! not millions, and the same plan is re-executed every scheduling round.
//! Joins use a hash join whenever equi-join keys can be extracted from the
//! join predicate and fall back to nested loops otherwise.

use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::expr::{BinOp, Expr};
use crate::plan::{JoinKind, Plan};
use crate::schema::{Field, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// The result of executing a plan: a schema plus rows, detached from any
/// catalog name.
#[derive(Debug, Clone)]
pub struct ResultSet {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl ResultSet {
    /// Create a result set.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ResultSet { schema, rows }
    }

    /// Output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Output rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no output rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Execute a logical plan against a catalog.
pub fn execute(plan: &Plan, catalog: &Catalog) -> RelResult<ResultSet> {
    match plan {
        Plan::Scan { relation } => {
            let table = catalog.get(relation)?;
            Ok(ResultSet::new(
                table.schema().clone(),
                table.rows().to_vec(),
            ))
        }
        Plan::Select { input, predicate } => {
            let input = execute(input, catalog)?;
            let mut rows = Vec::new();
            for row in input.rows() {
                if predicate.eval_predicate(row, input.schema())? {
                    rows.push(row.clone());
                }
            }
            Ok(ResultSet::new(input.schema().clone(), rows))
        }
        Plan::Project { input, items } => {
            let input = execute(input, catalog)?;
            let fields: Vec<Field> = items
                .iter()
                .map(|item| Field::new(item.name(), item.expr.result_type(input.schema())))
                .collect();
            let schema = Schema::new(fields);
            let mut rows = Vec::with_capacity(input.len());
            for row in input.rows() {
                let mut values = Vec::with_capacity(items.len());
                for item in items {
                    values.push(item.expr.eval(row, input.schema())?);
                }
                rows.push(Tuple::new(values));
            }
            Ok(ResultSet::new(schema, rows))
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = execute(left, catalog)?;
            let r = execute(right, catalog)?;
            execute_join(&l, &r, *kind, on.as_ref())
        }
        Plan::UnionAll { left, right } => {
            let l = execute(left, catalog)?;
            let r = execute(right, catalog)?;
            check_union_compatible(&l, &r)?;
            let mut rows = l.rows().to_vec();
            rows.extend_from_slice(r.rows());
            Ok(ResultSet::new(l.schema().clone(), rows))
        }
        Plan::Except { left, right } => {
            let l = execute(left, catalog)?;
            let r = execute(right, catalog)?;
            check_union_compatible(&l, &r)?;
            let exclude: std::collections::HashSet<&Tuple> = r.rows().iter().collect();
            let mut seen = std::collections::HashSet::new();
            let mut rows = Vec::new();
            for row in l.rows() {
                if !exclude.contains(row) && seen.insert(row.clone()) {
                    rows.push(row.clone());
                }
            }
            Ok(ResultSet::new(l.schema().clone(), rows))
        }
        Plan::Distinct { input } => {
            let input = execute(input, catalog)?;
            let mut seen = std::collections::HashSet::new();
            let mut rows = Vec::new();
            for row in input.rows() {
                if seen.insert(row.clone()) {
                    rows.push(row.clone());
                }
            }
            Ok(ResultSet::new(input.schema().clone(), rows))
        }
        Plan::Rename { input, columns } => {
            let input = execute(input, catalog)?;
            if columns.len() != input.schema().len() {
                return Err(RelError::SchemaMismatch {
                    detail: format!(
                        "rename expects {} columns, got {}",
                        input.schema().len(),
                        columns.len()
                    ),
                });
            }
            let fields = columns
                .iter()
                .zip(input.schema().fields())
                .map(|(name, f)| Field::new(name.clone(), f.data_type))
                .collect();
            Ok(ResultSet::new(Schema::new(fields), input.rows().to_vec()))
        }
    }
}

fn check_union_compatible(l: &ResultSet, r: &ResultSet) -> RelResult<()> {
    if !l.schema().union_compatible(r.schema()) {
        return Err(RelError::NotUnionCompatible {
            left: l.schema().to_string(),
            right: r.schema().to_string(),
        });
    }
    Ok(())
}

/// Equi-join key pair extracted from a join predicate: indices into the left
/// and right schemas.
struct EquiKeys {
    left: Vec<usize>,
    right: Vec<usize>,
    /// Conjuncts that could not be turned into hash keys; evaluated as a
    /// residual predicate over the concatenated tuple.
    residual: Vec<Expr>,
}

/// Split a predicate into its top-level AND conjuncts.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Turn each `col = col` conjunct of `on` whose two names land on opposite
/// sides of the joined schema into a hash key pair.  Names resolve exactly
/// as the residual and nested-loop paths resolve them: against the joined
/// schema, where a name both inputs carry means the left column.
fn extract_equi_keys(on: &Expr, joined: &Schema, left_arity: usize) -> EquiKeys {
    let mut keys = EquiKeys {
        left: Vec::new(),
        right: Vec::new(),
        residual: Vec::new(),
    };
    for conj in conjuncts(on) {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = conj
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                if let (Some(ia), Some(ib)) = (joined.index_of(ca), joined.index_of(cb)) {
                    let pair = match (ia < left_arity, ib < left_arity) {
                        (true, false) => Some((ia, ib - left_arity)),
                        (false, true) => Some((ib, ia - left_arity)),
                        _ => None,
                    };
                    if let Some((li, ri)) = pair {
                        keys.left.push(li);
                        keys.right.push(ri);
                        continue;
                    }
                }
            }
        }
        keys.residual.push(conj.clone());
    }
    keys
}

fn execute_join(
    l: &ResultSet,
    r: &ResultSet,
    kind: JoinKind,
    on: Option<&Expr>,
) -> RelResult<ResultSet> {
    let joined_schema = l.schema().join(r.schema(), "right");
    let out_schema = match kind {
        JoinKind::Inner => joined_schema.clone(),
        JoinKind::Semi | JoinKind::Anti => l.schema().clone(),
    };

    // Decide between hash and nested-loop strategies.
    let equi = on.map(|e| extract_equi_keys(e, &joined_schema, l.schema().len()));
    let use_hash = equi.as_ref().map(|k| !k.left.is_empty()).unwrap_or(false);

    let mut out_rows: Vec<Tuple> = Vec::new();

    if use_hash {
        let keys = equi.unwrap();
        // Build side: right input.
        let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (pos, row) in r.rows().iter().enumerate() {
            let key: Vec<Value> = keys.right.iter().map(|&i| *row.get(i)).collect();
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never join in SQL semantics
            }
            build.entry(key).or_default().push(pos);
        }
        for lrow in l.rows() {
            let key: Vec<Value> = keys.left.iter().map(|&i| *lrow.get(i)).collect();
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(candidates) = build.get(&key) {
                    for &pos in candidates {
                        let rrow = &r.rows()[pos];
                        // Single-pass concatenation: builds the joined row
                        // at its final arity (inline when it fits) instead
                        // of concat's grow-twice path.
                        let combined = Tuple::from_slices(lrow.values(), rrow.values());
                        let passes = residual_passes(&keys.residual, &combined, &joined_schema)?;
                        if passes {
                            matched = true;
                            match kind {
                                JoinKind::Inner => out_rows.push(combined),
                                JoinKind::Semi => {
                                    out_rows.push(lrow.clone());
                                    break;
                                }
                                JoinKind::Anti => break,
                            }
                        }
                    }
                }
            }
            if kind == JoinKind::Anti && !matched {
                out_rows.push(lrow.clone());
            }
        }
    } else {
        for lrow in l.rows() {
            let mut matched = false;
            for rrow in r.rows() {
                let combined = Tuple::from_slices(lrow.values(), rrow.values());
                let passes = match on {
                    Some(pred) => pred.eval_predicate(&combined, &joined_schema)?,
                    None => true,
                };
                if passes {
                    matched = true;
                    match kind {
                        JoinKind::Inner => out_rows.push(combined),
                        JoinKind::Semi => {
                            out_rows.push(lrow.clone());
                            break;
                        }
                        JoinKind::Anti => break,
                    }
                }
            }
            if kind == JoinKind::Anti && !matched {
                out_rows.push(lrow.clone());
            }
        }
    }

    Ok(ResultSet::new(out_schema, out_rows))
}

fn residual_passes(residual: &[Expr], combined: &Tuple, schema: &Schema) -> RelResult<bool> {
    for pred in residual {
        if !pred.eval_predicate(combined, schema)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::table::Table;
    use crate::tuple;

    fn catalog() -> Catalog {
        let req_schema = Schema::new(vec![
            Field::int("id"),
            Field::int("ta"),
            Field::str("operation"),
            Field::int("object"),
        ]);
        let mut requests = Table::new("requests", req_schema.clone());
        requests.push(tuple![1, 1, "r", 10]).unwrap();
        requests.push(tuple![2, 1, "w", 11]).unwrap();
        requests.push(tuple![3, 2, "w", 10]).unwrap();
        requests.push(tuple![4, 3, "r", 12]).unwrap();

        let mut history = Table::new("history", req_schema);
        history.push(tuple![100, 9, "w", 10]).unwrap();
        history.push(tuple![101, 9, "r", 12]).unwrap();

        let mut c = Catalog::new();
        c.register(requests);
        c.register(history);
        c
    }

    #[test]
    fn scan_select_project() {
        let c = catalog();
        let plan = PlanBuilder::scan("requests")
            .filter(Expr::col("operation").eq(Expr::lit("w")))
            .project(vec![Expr::col("ta"), Expr::col("object")])
            .build();
        let out = execute(&plan, &c).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().names(), vec!["ta", "object"]);
        assert_eq!(out.rows()[0].get(0), &Value::Int(1));
    }

    /// Sorted rows, so results of the two join strategies compare as bags.
    fn sorted_rows(out: &ResultSet) -> Vec<String> {
        let mut rows: Vec<String> = out.rows().iter().map(Tuple::to_string).collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn inner_join_hash_path_matches_nested_loop() {
        let c = catalog();
        // (renamed history columns, left column, right column, expected
        // inner-join rows).  In the second case `id` names a column of both
        // inputs; over the joined schema it means the left one, so the
        // predicate compares two left columns and no hash key exists.
        let cases = [
            (
                ["h_id", "h_ta", "h_op", "h_object"],
                "object",
                "h_object",
                3,
            ),
            (["h_id", "id", "h_op", "h_object"], "ta", "id", 2),
        ];
        for (columns, lcol, rcol, inner_rows) in cases {
            let history = || PlanBuilder::scan("history").rename(columns.to_vec());
            // Hash path: pure equi-join.
            let eq = Expr::col(lcol).eq(Expr::col(rcol));
            // Nested-loop path: force non-equi shape with the same semantics.
            let range = Expr::col(lcol)
                .ge(Expr::col(rcol))
                .and(Expr::col(lcol).le(Expr::col(rcol)));
            for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
                let run = |on: &Expr| {
                    let plan = PlanBuilder::scan("requests")
                        .join(history(), kind, Some(on.clone()))
                        .build();
                    execute(&plan, &c).unwrap()
                };
                let (hash, nested) = (run(&eq), run(&range));
                assert_eq!(
                    sorted_rows(&hash),
                    sorted_rows(&nested),
                    "{kind:?} on {lcol} = {rcol}"
                );
                if kind == JoinKind::Inner {
                    assert_eq!(hash.len(), inner_rows, "{lcol} = {rcol}");
                }
            }
        }
    }

    #[test]
    fn semi_and_anti_join_partition_left_side() {
        let c = catalog();
        let on = Some(Expr::col("object").eq(Expr::col("h_object")));
        let renamed = PlanBuilder::scan("history").rename(vec!["h_id", "h_ta", "h_op", "h_object"]);
        let semi = PlanBuilder::scan("requests")
            .join(renamed.clone(), JoinKind::Semi, on.clone())
            .build();
        let anti = PlanBuilder::scan("requests")
            .join(renamed, JoinKind::Anti, on)
            .build();
        let semi_out = execute(&semi, &c).unwrap();
        let anti_out = execute(&anti, &c).unwrap();
        assert_eq!(semi_out.len() + anti_out.len(), 4);
        assert_eq!(semi_out.schema().len(), 4); // left columns only
        assert_eq!(anti_out.len(), 1);
        assert_eq!(anti_out.rows()[0].get(3), &Value::Int(11));
    }

    #[test]
    fn union_except_intersect() {
        let c = catalog();
        let a = PlanBuilder::scan("requests").project(vec![Expr::col("ta")]);
        let b = PlanBuilder::scan("history").project(vec![Expr::col("ta")]);
        let union = a.clone().union_all(b.clone()).build();
        let except = a.except(b).build();
        assert_eq!(execute(&union, &c).unwrap().len(), 6);
        // EXCEPT is set-semantics: tas {1,2,3} minus {9} = {1,2,3}
        assert_eq!(execute(&except, &c).unwrap().len(), 3);
    }

    #[test]
    fn union_incompatible_schemas_error() {
        let c = catalog();
        let a = PlanBuilder::scan("requests").project(vec![Expr::col("ta")]);
        let b = PlanBuilder::scan("history").project(vec![Expr::col("operation")]);
        let plan = a.union_all(b).build();
        assert!(matches!(
            execute(&plan, &c),
            Err(RelError::NotUnionCompatible { .. })
        ));
    }

    #[test]
    fn distinct_sort_limit() {
        let c = catalog();
        let plan = PlanBuilder::scan("requests")
            .project(vec![Expr::col("operation")])
            .distinct()
            .build();
        let out = execute(&plan, &c).unwrap();
        let mut ops: Vec<&str> = out
            .rows()
            .iter()
            .filter_map(|r| r.get(0).as_str())
            .collect();
        ops.sort_unstable();
        assert_eq!(ops, vec!["r", "w"]);
    }

    #[test]
    fn values_plan_and_rename() {
        let c = catalog();
        let plan = PlanBuilder::scan("requests")
            .project(vec![Expr::col("ta"), Expr::col("operation")])
            .build();
        let renamed = Plan::Rename {
            input: Box::new(plan.clone()),
            columns: vec!["p".into(), "q".into()],
        };
        let out = execute(&renamed, &c).unwrap();
        assert_eq!(out.schema().names(), vec!["p", "q"]);
        assert_eq!(out.rows(), execute(&plan, &c).unwrap().rows());

        let wrong_arity = Plan::Rename {
            input: Box::new(plan),
            columns: vec!["p".into()],
        };
        assert!(matches!(
            execute(&wrong_arity, &c),
            Err(RelError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::int("k")]);
        let mut a = Table::new("a", schema.clone());
        a.push(Tuple::new(vec![Value::Null])).unwrap();
        a.push(tuple![1]).unwrap();
        let mut b = Table::new("b", schema);
        b.push(Tuple::new(vec![Value::Null])).unwrap();
        b.push(tuple![1]).unwrap();
        c.register(a);
        c.register(b);
        let plan = PlanBuilder::scan("a")
            .join(
                PlanBuilder::scan("b").rename(vec!["k2"]),
                JoinKind::Inner,
                Some(Expr::col("k").eq(Expr::col("k2"))),
            )
            .build();
        let out = execute(&plan, &c).unwrap();
        assert_eq!(out.len(), 1); // only the 1=1 pair, NULLs never equal
    }
}
