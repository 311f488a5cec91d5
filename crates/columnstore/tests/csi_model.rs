//! The columnstore against a model: random inserts, deletes, updates (a
//! delete and an insert, as the engine runs them) and budgeted maintenance
//! increments on a primary or a secondary columnstore, each compared with a
//! plain `Vec<Row>` kept sorted by key. A primary's delete must hand back the
//! model's row. Budgets run
//! from one row to twice a row group, and the `MAINT_STEP_SHRINK` (half the
//! budget) and `TUPLE_MOVE_DEFER` (no tuple move at capacity) faults fire
//! at random. After every operation:
//!
//! - a scan returns exactly the model's rows;
//! - the live rows (`active_rows`) add up to the model's length;
//! - no delta row was compressed while a delete was buffered (the
//!   tuple-mover invariant: a buffered delete of a key would anti-join the
//!   compressed new version of its row away).
//!
//! And a steady stream of writes and increments keeps the row-group count
//! bounded: merges undo what budgeted chunks fragment.
//!
//! Each run's `val` column holds multiples of a random power of ten, so its
//! segments store the values divided by it, through every rebuild.

use std::collections::HashMap;

use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind};
use hpd_common::{faults, DataType, Key, Row, Schema, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ])
}

/// Row `id`, whose `val` is a multiple of `unit`.
fn row(id: i32, unit: i64, rng: &mut StdRng) -> Row {
    Row::new(vec![
        Value::Int32(id),
        Value::Int32(rng.gen_range(0..7)),
        Value::Int64(rng.gen_range(-1_000..1_000i64) * unit),
    ])
}

fn key(id: i32) -> Key {
    Key::single(Value::Int32(id))
}

struct Run {
    idx: ColumnStoreIndex,
    /// The rows the index holds, by key.
    model: Vec<Row>,
    pool: BufferPool,
    tracker: IoTracker,
    next_id: i32,
    capacity: usize,
    /// The power of ten every `val` is a multiple of.
    unit: i64,
}

impl Run {
    fn new(rng: &mut StdRng, kind: CsiKind, capacity: usize, rows: i32) -> Run {
        let (pool, tracker) = (
            BufferPool::unbounded(DeviceProfile::ram()),
            IoTracker::new(),
        );
        let unit = 10i64.pow(rng.gen_range(0..16));
        let model: Vec<Row> = (0..rows).map(|id| row(id, unit, rng)).collect();
        let config = CsiConfig {
            rowgroup_capacity: capacity,
            // Deletes stay buffered until an increment resolves them.
            delete_buffer_compact_threshold: usize::MAX,
            ..CsiConfig::default()
        };
        let idx = ColumnStoreIndex::build(
            schema(),
            kind,
            vec![0],
            config,
            &model,
            StorageAllocator::new(),
            &pool,
            &tracker,
        );
        Run {
            idx,
            model,
            pool,
            tracker,
            next_id: rows,
            capacity,
            unit,
        }
    }

    fn scan(&self) -> Vec<Row> {
        let t = IoTracker::new();
        let mut rows: Vec<Row> =
            (self
                .idx
                .scan_collect(&[0, 1, 2], &HashMap::new(), &self.pool, &t))
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        rows.sort_by_key(|r| r.key(&[0]));
        rows
    }

    fn check(&self, what: &str) -> Result<(), String> {
        if self.idx.active_rows() != self.model.len() {
            return Err(format!(
                "{what}: {} live rows, the model holds {}",
                self.idx.active_rows(),
                self.model.len()
            ));
        }
        if self.scan() != self.model {
            return Err(format!("{what}: the scan differs from the model"));
        }
        // Every row group's `val` words are its values over `unit` at most
        // (a group of zeros alone keeps them as they are).
        let (k, zero) = (self.unit.ilog10() as u8, Value::Int64(0));
        for g in 0..self.idx.num_rowgroups() {
            let val = self.idx.rowgroup(g).segment(2);
            if val.exponent() < k && (val.min(), val.max()) != (&zero, &zero) {
                return Err(format!(
                    "{what}: row group {g} stores `val` over 10^{}, not 10^{k}",
                    val.exponent()
                ));
            }
        }
        Ok(())
    }

    fn insert(&mut self, rng: &mut StdRng) -> Result<(), String> {
        let r = row(self.next_id, self.unit, rng);
        self.next_id += 1;
        let deferred = rng.gen_bool(0.3);
        if deferred {
            faults::arm(faults::sites::TUPLE_MOVE_DEFER, 1);
        }
        self.put(self.model.len(), r)
    }

    /// Insert `r`, the model's row `at` to be.
    fn put(&mut self, at: usize, r: Row) -> Result<(), String> {
        let delta = self.idx.delta_rows();
        self.idx.insert(r.clone(), &self.pool, &self.tracker);
        faults::reset_charges();
        self.model.insert(at, r);
        if self.idx.delta_rows() <= delta && self.idx.delete_buffer_len() > 0 {
            return Err("a tuple move left a delete buffered".into());
        }
        Ok(())
    }

    /// The position of a random row of the model, if it holds any.
    fn pick(&self, rng: &mut StdRng) -> Option<usize> {
        (!self.model.is_empty()).then(|| rng.gen_range(0..self.model.len()))
    }

    /// Delete the model's row `at` through `delete_returning`, the engine's
    /// path: a primary must hand back exactly the model's row, a secondary
    /// (whose caller has the row from its primary) nothing unless the row
    /// was still in the delta store.
    fn delete(&mut self, at: usize) -> Result<(), String> {
        let id = self.model[at][0].as_i32().expect("ids are Int32");
        let old = (self.idx).delete_returning(&key(id), &self.pool, &self.tracker);
        match (old, self.idx.kind()) {
            (Some(old), _) if old != self.model[at] => {
                return Err(format!("delete of {id} handed back {old:?}"))
            }
            (None, CsiKind::Primary) => return Err(format!("delete of {id} found nothing")),
            _ => {}
        }
        self.model.remove(at);
        Ok(())
    }

    /// An update is a delete followed by an insert of the new version.
    fn update(&mut self, at: usize, rng: &mut StdRng) -> Result<(), String> {
        let id = self.model[at][0].as_i32().expect("ids are Int32");
        self.delete(at)?;
        self.put(at, row(id, self.unit, rng))
    }

    fn maintain(&mut self, budget: usize, shrink: bool) -> Result<(), String> {
        if shrink {
            faults::arm(faults::sites::MAINT_STEP_SHRINK, 1);
        }
        let step = self.idx.maintenance_step(budget, &self.pool, &self.tracker);
        faults::reset_charges();
        let spent = step.deletes_compacted + step.rows_moved + step.rows_rewritten;
        if spent > budget {
            return Err(format!("{step:?} spent more than its budget of {budget}"));
        }
        if step.rows_moved > 0 && self.idx.delete_buffer_len() > 0 {
            return Err(format!(
                "{step:?} compressed delta rows past a buffered delete"
            ));
        }
        Ok(())
    }

    fn step(&mut self, rng: &mut StdRng) -> Result<String, String> {
        let what = match rng.gen_range(0..10) {
            0..=3 => {
                self.insert(rng)?;
                "insert"
            }
            4 | 5 => match self.pick(rng) {
                Some(at) => {
                    self.delete(at)?;
                    "delete"
                }
                None => "nothing",
            },
            6 | 7 => match self.pick(rng) {
                Some(at) => {
                    self.update(at, rng)?;
                    "update"
                }
                None => "nothing",
            },
            _ => {
                let budget = rng.gen_range(1..=2 * self.capacity);
                self.maintain(budget, rng.gen_bool(0.25))?;
                "increment"
            }
        };
        Ok(what.to_string())
    }
}

#[test]
fn random_writes_and_increments_agree_with_the_model() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = [CsiKind::Primary, CsiKind::Secondary][seed as usize % 2];
        let capacity = rng.gen_range(4..40);
        let rows = rng.gen_range(0..4 * capacity as i32);
        let mut run = Run::new(&mut rng, kind, capacity, rows);
        run.check("after the build").unwrap();
        for i in 0..300 {
            let what = run
                .step(&mut rng)
                .unwrap_or_else(|e| panic!("seed {seed} ({kind:?}), step {i}: {e}"));
            run.check(&what)
                .unwrap_or_else(|e| panic!("seed {seed} ({kind:?}), step {i}: {e}"));
        }
    }
}

/// Rounds of inserts of new keys, updates of random rows and deletes of the
/// round's oldest own inserts, then one increment of twice a row group: the
/// table holds as many rows at the end as at the start, and its row groups
/// stay as few as they were after the first rounds, though every round
/// compresses a chunk of its own.
#[test]
fn a_steady_stream_keeps_the_rowgroups_bounded() {
    const CAPACITY: usize = 64;
    for kind in [CsiKind::Primary, CsiKind::Secondary] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut run = Run::new(&mut rng, kind, CAPACITY, 8 * CAPACITY as i32);
        let mut own = std::collections::VecDeque::new();
        let mut counts = Vec::new();
        for round in 0..300 {
            for _ in 0..6 {
                own.push_back(run.next_id);
                run.insert(&mut rng).unwrap();
                let at = run.pick(&mut rng).unwrap();
                run.update(at, &mut rng).unwrap();
            }
            while own.len() > 12 {
                let id = own.pop_front().unwrap();
                let at = run.model.partition_point(|r| r[0] < Value::Int32(id));
                run.delete(at).unwrap();
            }
            run.maintain(2 * CAPACITY, false).unwrap();
            run.check(&format!("round {round}")).unwrap();
            counts.push(run.idx.num_rowgroups());
        }
        let live_groups = run.model.len().div_ceil(CAPACITY);
        let most = counts[50..].iter().max().copied().unwrap();
        assert!(
            most <= 2 * live_groups + 2,
            "{kind:?}: up to {most} row groups for {live_groups} groups of live rows"
        );
        let early = counts[50..150].iter().max().copied().unwrap();
        let late = counts[200..].iter().max().copied().unwrap();
        assert!(
            late <= early + 1,
            "{kind:?}: up to {early} row groups in rounds 50-150, {late} after 200"
        );
    }
}
