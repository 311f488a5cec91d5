//! A design change moves a table's indexes, not its rows: a snapshot that
//! began before it keeps reading what it read, and first-committer-wins
//! still sees the writes that committed before it. (SQL `DROP INDEX`, which
//! is `drop_index`, has the same test in `hpd-sql`'s `sql_e2e`.) And each
//! part's index list is checked against a model of it under a random mix of
//! every design change and row change.

use hpd_common::{CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::{
    Database, DbConfig, IndexDescriptor, IsolationLevel, PartitionSpec, SelectQuery, Statement,
    TableDesign, UpdateStmt,
};

const ROWS: i32 = 200;
/// The row another session rewrites under the snapshot.
const HOT: i32 = 57;

fn btree() -> IndexDescriptor {
    IndexDescriptor::PrimaryBTree { keys: vec![0] }
}

fn on_grp() -> IndexDescriptor {
    IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![],
    }
}

fn on_val() -> IndexDescriptor {
    IndexDescriptor::SecondaryBTree {
        keys: vec![2],
        includes: vec![1],
    }
}

fn csi() -> IndexDescriptor {
    IndexDescriptor::SecondaryCsi {
        columns: vec![0, 1, 2],
    }
}

/// `t(id, grp, val)` under a B+ tree primary with secondaries on `grp` and
/// on `val`; four range partitions on `id` when `partitioned`.
fn database(partitioned: bool) -> Database {
    let db = Database::new(DbConfig::default());
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ]);
    if partitioned {
        let bounds = [50, 100, 150].map(Value::Int32).to_vec();
        let spec = PartitionSpec::range(0, bounds).unwrap();
        db.create_partitioned_table("t", schema, vec![0], btree(), spec)
            .unwrap();
    } else {
        db.create_table("t", schema, vec![0], btree()).unwrap();
    }
    let row = |id: i32| {
        Row::new(vec![
            Value::Int32(id),
            Value::Int32(id % 7),
            Value::Int64(i64::from(id) * 10),
        ])
    };
    db.load_table("t", (0..ROWS).map(row).collect()).unwrap();
    db.create_index("t", &on_grp()).unwrap();
    db.create_index("t", &on_val()).unwrap();
    db
}

fn set_val(id: i32, val: i64) -> Statement {
    Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(id)),
        set: vec![(2, Expr::Lit(Value::Int64(val)))],
        top: None,
    })
}

/// A snapshot reads the table, another session rewrites [`HOT`], then
/// `change` runs: the snapshot must read the same rows again, and its own
/// update of [`HOT`] must lose to the write that committed first.
fn snapshot_reads_on_and_loses_the_conflict(db: &Database, change: impl FnOnce(&Database)) {
    let session = db.session(IsolationLevel::Snapshot);
    let mut txn = session.begin();
    let all = SelectQuery::single_table("t", None, vec![0, 1, 2]);
    let read = |txn: &mut hpd_engine::Txn<'_>| {
        let mut rows = txn.select(&all).unwrap().rows;
        rows.sort_by_key(|r| r.key(&[0]));
        rows
    };
    let before = read(&mut txn);
    assert_eq!(before.len(), ROWS as usize);

    db.query(&set_val(HOT, -1)).run().unwrap();
    change(db);

    let again = read(&mut txn);
    let moved: Vec<_> = again.iter().zip(&before).filter(|(a, b)| a != b).collect();
    assert!(
        moved.is_empty() && again.len() == before.len(),
        "the snapshot's repeated read changed (now, then): {moved:?}"
    );
    let lost = txn
        .execute(&set_val(HOT, 5))
        .and_then(|_| txn.commit().map(drop));
    assert!(
        matches!(lost, Err(HpdError::SerializationFailure(_))),
        "the row changed after the snapshot began: {lost:?}"
    );
    // What the other session wrote is what a new reader finds.
    let hot = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(HOT))),
        vec![2],
    );
    assert_eq!(
        db.query(&hot).run().unwrap().rows,
        vec![Row::new(vec![Value::Int64(-1)])]
    );
}

#[test]
fn a_snapshot_spans_apply_design() {
    // One secondary kept, one dropped, one added; then the primary itself
    // replaced under the kept secondary.
    let designs = [
        vec![btree(), on_val(), csi()],
        vec![IndexDescriptor::PrimaryCsi, on_val()],
    ];
    for design in designs {
        let db = database(false);
        snapshot_reads_on_and_loses_the_conflict(&db, |db| {
            db.apply_design(&TableDesign::new("t", design.clone()))
                .unwrap()
        });
        let built: Vec<IndexDescriptor> = db
            .with_table("t", |t| {
                t.part_metas(0).into_iter().map(|m| m.descriptor).collect()
            })
            .unwrap();
        assert_eq!(built, design);
    }
}

#[test]
fn a_snapshot_spans_apply_partition_design() {
    let db = database(true);
    snapshot_reads_on_and_loses_the_conflict(&db, |db| {
        // The part holding the rewritten row.
        db.apply_partition_design("t", 1, &IndexDescriptor::PrimaryCsi, &[on_grp()])
            .unwrap()
    });
}

#[test]
fn a_snapshot_spans_create_index() {
    let db = database(false);
    snapshot_reads_on_and_loses_the_conflict(&db, |db| db.create_index("t", &csi()).unwrap());
}

/// The index list of every part against a model of it: a seeded random mix
/// of every way a design changes (`create_index`, `drop_index`,
/// `apply_design`, `apply_partition_design`) and of inserts, updates and
/// deletes, on a table of three parts ranged on a column that is not the
/// key (so an update can move a row between parts). After every step each
/// part reports the model's list in the model's order, every index read in
/// full through the executor holds exactly the part's rows projected onto
/// its stored columns, and a secondary columnstore a change kept has the
/// delta rows and buffered deletes it had.
mod index_list_model {
    use std::collections::{BTreeMap, HashMap};

    use hpd_common::{CmpOp, DataType, Expr, Row, Schema, Value};
    use hpd_engine::plan::{PlanCol, PlanNode, PlanTable};
    use hpd_engine::table::Table;
    use hpd_engine::{
        CsiConfig, Database, DbConfig, DeleteStmt, IndexDescriptor, IndexId, InsertStmt,
        PartitionSpec, PhysicalPlan, PlanNodeKind, QueryRunner, Statement, TableDesign, UpdateStmt,
    };
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const PARTS: usize = 3;
    const PK: usize = 0;
    /// The partitioning column: parts hold `..10`, `10..20`, `20..`.
    const BUCKET: usize = 3;

    fn on(keys: &[usize], includes: &[usize]) -> IndexDescriptor {
        IndexDescriptor::SecondaryBTree {
            keys: keys.to_vec(),
            includes: includes.to_vec(),
        }
    }

    /// The secondaries a step may name; two are columnstores, so some
    /// designs are refused.
    fn candidates() -> Vec<IndexDescriptor> {
        vec![
            on(&[1], &[]),
            on(&[2], &[1]),
            on(&[3, 1], &[]),
            on(&[1], &[2, 0]),
            IndexDescriptor::SecondaryCsi {
                columns: vec![1, 2],
            },
            IndexDescriptor::SecondaryCsi {
                columns: vec![0, 1, 2, 3],
            },
        ]
    }

    /// What a part is expected to report for `design`: the secondary
    /// columnstore last, its columns completed with the primary key.
    fn listed(design: &[IndexDescriptor]) -> Vec<IndexDescriptor> {
        let (mut list, mut last) = (Vec::new(), Vec::new());
        for d in design {
            match d {
                IndexDescriptor::SecondaryCsi { columns } => {
                    let mut columns = columns.clone();
                    if !columns.contains(&PK) {
                        columns.push(PK);
                    }
                    last.push(IndexDescriptor::SecondaryCsi { columns });
                }
                _ => list.push(d.clone()),
            }
        }
        list.extend(last);
        list
    }

    fn columnstores(list: &[IndexDescriptor]) -> usize {
        list.iter().filter(|d| d.is_csi()).count()
    }

    fn part_of(row: &Row) -> usize {
        match row[BUCKET] {
            Value::Int32(b) if b < 10 => 0,
            Value::Int32(b) if b < 20 => 1,
            _ => 2,
        }
    }

    fn row(rng: &mut StdRng, id: i32) -> Row {
        Row::new(vec![
            Value::Int32(id),
            Value::Int32(rng.gen_range(0..6)),
            Value::Int64(rng.gen_range(0..40)),
            Value::Int32(rng.gen_range(0..30)),
        ])
    }

    fn sorted(mut rows: Vec<String>) -> Vec<String> {
        rows.sort();
        rows
    }

    /// Every entry of index `i` of part `p`, through the executor: a full
    /// scan of that position of the part's list, all its stored columns.
    fn read_index(db: &Database, t: &Table, p: usize, i: usize) -> Vec<String> {
        let index = &t.part(p).indexes()[i];
        let (table, part, dop) = (0, p, 1);
        let kind = if index.descriptor().is_csi() {
            PlanNodeKind::CsiScan {
                table,
                part,
                index: IndexId(i),
                intervals: HashMap::new(),
                dop,
            }
        } else {
            PlanNodeKind::BTreeScan {
                table,
                part,
                index: IndexId(i),
                dop,
            }
        };
        let stored = index.stored();
        let plan = PhysicalPlan {
            root: PlanNode::new(
                kind,
                stored.iter().map(|&c| PlanCol::Base(0, c)).collect(),
                (stored.iter())
                    .map(|&c| t.schema().column(c).dtype)
                    .collect(),
                0.0,
            ),
            tables: vec![PlanTable {
                name: "t".into(),
                parts: PARTS,
            }],
            est_cost_us: 0.0,
            est_cpu_us: 0.0,
        };
        let result = QueryRunner::new(vec![t], db.pool(), 1 << 20)
            .run(&plan)
            .unwrap_or_else(|e| panic!("part {p} index {i}: {e:?}"));
        sorted(result.rows.iter().map(|r| format!("{r:?}")).collect())
    }

    /// `(delta rows, buffered deletes)` of each part's secondary columnstore.
    fn residue(db: &Database) -> Vec<Option<(IndexDescriptor, usize, usize)>> {
        db.with_table("t", |t| {
            (0..PARTS)
                .map(|p| {
                    let last = t.part_metas(p).pop().expect("a part has a primary");
                    matches!(last.descriptor, IndexDescriptor::SecondaryCsi { .. })
                        .then(|| (last.descriptor, last.delta_rows, last.delete_buffer_rows))
                })
                .collect()
        })
        .unwrap()
    }

    fn check(
        db: &Database,
        lists: &[Vec<IndexDescriptor>],
        rows: &BTreeMap<i32, Row>,
        step: &str,
    ) -> Result<(), String> {
        db.with_table("t", |t| {
            for (p, list) in lists.iter().enumerate() {
                let reported: Vec<_> = (t.part_metas(p).into_iter())
                    .map(|m| m.descriptor)
                    .collect();
                if reported != *list {
                    return Err(format!(
                        "{step}: part {p} lists {reported:?}, the model {list:?}"
                    ));
                }
                for (i, index) in t.part(p).indexes().iter().enumerate() {
                    let expected = sorted(
                        (rows.values().filter(|r| part_of(r) == p))
                            .map(|r| format!("{:?}", r.project(index.stored())))
                            .collect(),
                    );
                    let held = read_index(db, t, p, i);
                    if held != expected {
                        return Err(format!(
                            "{step}: part {p} index {i} {:?} holds {held:?}, the rows are \
                             {expected:?}",
                            index.descriptor()
                        ));
                    }
                }
            }
            Ok(())
        })
        .unwrap()
    }

    pub fn run(seed: u64, steps: usize) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Database::new(DbConfig {
            // Small enough that delta rows, buffered deletes and several
            // row groups all occur within a run.
            csi: CsiConfig {
                rowgroup_capacity: 16,
                delete_buffer_compact_threshold: 8,
                ..Default::default()
            },
            ..DbConfig::default()
        });
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("grp", DataType::Int32),
            ("val", DataType::Int64),
            ("bucket", DataType::Int32),
        ]);
        let btree = IndexDescriptor::PrimaryBTree { keys: vec![PK] };
        let primaries = [btree.clone(), IndexDescriptor::PrimaryCsi];
        let spec = PartitionSpec::range(BUCKET, vec![Value::Int32(10), Value::Int32(20)]).unwrap();
        db.create_partitioned_table("t", schema, vec![PK], btree.clone(), spec)
            .unwrap();
        let mut rows: BTreeMap<i32, Row> = (0..60).map(|id| (id, row(&mut rng, id))).collect();
        db.load_table("t", rows.values().cloned().collect())
            .unwrap();
        let mut lists = vec![vec![btree]; PARTS];
        let mut next_id = 1_000;
        check(&db, &lists, &rows, "load")?;

        // A random design: a primary, then candidates in random order.
        let design = |rng: &mut StdRng| {
            let mut secondaries = candidates();
            secondaries.shuffle(rng);
            secondaries.truncate(rng.gen_range(0..4));
            let mut design = vec![primaries[rng.gen_range(0..2usize)].clone()];
            design.extend(secondaries);
            design
        };
        let by_id = |id: i32| Expr::col_cmp(PK, CmpOp::Eq, Value::Int32(id));
        for n in 0..steps {
            let before = residue(&db);
            let mut target = lists.clone();
            let mut lacking = false;
            let (step, outcome) = match rng.gen_range(0..12) {
                0 => {
                    let d = candidates().choose(&mut rng).unwrap().clone();
                    for list in &mut target {
                        list.push(d.clone());
                        *list = listed(list);
                    }
                    (format!("create_index {d:?}"), db.create_index("t", &d))
                }
                1 | 2 => {
                    // Mostly an index some part has; sometimes one none has.
                    let held: Vec<_> = lists.iter().flat_map(|l| l[1..].to_vec()).collect();
                    let pool = if held.is_empty() || rng.gen_bool(0.2) {
                        candidates()
                    } else {
                        held
                    };
                    let d = pool.choose(&mut rng).unwrap().clone();
                    let reported = listed(std::slice::from_ref(&d)).remove(0);
                    for list in &mut target {
                        match list[1..].iter().position(|x| *x == reported) {
                            Some(at) => drop(list.remove(at + 1)),
                            None => lacking = true,
                        }
                    }
                    (format!("drop_index {d:?}"), db.drop_index("t", &d))
                }
                3 => {
                    let d = design(&mut rng);
                    target = vec![listed(&d); PARTS];
                    let change = db.apply_design(&TableDesign::new("t", d.clone()));
                    (format!("apply_design {d:?}"), change)
                }
                4 => {
                    let (p, d) = (rng.gen_range(0..PARTS), design(&mut rng));
                    target[p] = listed(&d);
                    let change = db.apply_partition_design("t", p, &d[0], &d[1..]);
                    (format!("apply_partition_design {p} {d:?}"), change)
                }
                5..=7 => {
                    let new = row(&mut rng, next_id);
                    next_id += 1;
                    rows.insert(next_id - 1, new.clone());
                    let stmt = Statement::Insert(InsertStmt {
                        table: "t".into(),
                        rows: vec![new],
                    });
                    ("insert".into(), db.query(&stmt).run().map(drop))
                }
                8..=10 => {
                    let Some(&id) = rows.keys().nth(rng.gen_range(0..rows.len().max(1))) else {
                        continue;
                    };
                    let (col, v) = match rng.gen_range(0..3) {
                        0 => (1, Value::Int32(rng.gen_range(0..6))),
                        1 => (2, Value::Int64(rng.gen_range(0..40))),
                        _ => (BUCKET, Value::Int32(rng.gen_range(0..30))),
                    };
                    rows.get_mut(&id).unwrap().set(col, v.clone());
                    let stmt = Statement::Update(UpdateStmt {
                        table: "t".into(),
                        predicate: by_id(id),
                        set: vec![(col, Expr::Lit(v))],
                        top: None,
                    });
                    (
                        format!("update {id} col {col}"),
                        db.query(&stmt).run().map(drop),
                    )
                }
                _ => {
                    let Some(&id) = rows.keys().nth(rng.gen_range(0..rows.len().max(1))) else {
                        continue;
                    };
                    rows.remove(&id);
                    let stmt = Statement::Delete(DeleteStmt {
                        table: "t".into(),
                        predicate: by_id(id),
                        top: None,
                    });
                    (format!("delete {id}"), db.query(&stmt).run().map(drop))
                }
            };
            let step = format!("seed {seed} step {n} ({step})");
            // A target no part can take (two columnstores, a drop of what a
            // part lacks) is refused, and then no part changed.
            let valid = !lacking && target.iter().all(|list| columnstores(list) <= 1);
            match (valid, outcome) {
                (true, Ok(())) => lists = target,
                (false, Err(_)) => {}
                (_, outcome) => return Err(format!("{step}: valid={valid}, got {outcome:?}")),
            }
            check(&db, &lists, &rows, &step)?;
            // A secondary columnstore that was there before and is there now
            // was kept: a design change compacts nothing. (Row changes move
            // the residue; only the design steps are held to this.)
            if step.contains("index") || step.contains("design") {
                for (p, (was, is)) in before.iter().zip(residue(&db)).enumerate() {
                    if let (Some(was), Some(is)) = (was, &is) {
                        if was.0 == is.0 && was != is {
                            return Err(format!(
                                "{step}: part {p}'s kept columnstore went from {was:?} to {is:?}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[test]
fn every_part_index_list_agrees_with_the_model() {
    for seed in 0..24 {
        index_list_model::run(seed, 80).unwrap_or_else(|e| panic!("{e}"));
    }
}
