//! The database: catalog, configuration, sessions, transactions, and the
//! what-if planning API.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpd_columnstore::CsiConfig;
use hpd_common::{faults, HpdError, Key, PartitionSpec, Result, Row, Schema, Value};
use hpd_exec::{ExecMetrics, GrantBroker, WorkerPool};
use hpd_storage::{BufferPool, DeviceProfile, IoSnapshot, IoTracker, StorageAllocator};
use hpd_wal::{EncodedRows, LogRecord, TableEntry, Wal, WalConfig, WalSummary};
use parking_lot::{Mutex, RwLock};

use crate::apply::{apply_write, RowChange};
use crate::cost::CostModel;
use crate::design::{validate_design, Configuration, IndexDescriptor, IndexMeta, TableDesign};
use crate::executor::{ExecutionResult, QueryRunner, TableOverlay};
use crate::maintenance::MaintenanceConfig;
use crate::optimizer::{Optimizer, PartInfo, TableContext};
use crate::plan::PhysicalPlan;
use crate::profile::{GrantSummary, Timeline};
use crate::query::{DeleteStmt, InsertStmt, SelectQuery, Statement, UpdateStmt};
use crate::querystore::{plan_fingerprint, QueryStore, StoredStatement};
use crate::table::{PostImage, Table};
use crate::txn::{IsolationLevel, LockKey, LockMode, TxnManager, WriteOp};

/// Database-wide configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    pub device: DeviceProfile,
    /// Buffer pool capacity; `u64::MAX / 4` means effectively unbounded.
    pub buffer_pool_bytes: u64,
    pub csi: CsiConfig,
    /// Maximum degree of parallelism the optimizer may pick.
    pub max_dop: usize,
    /// Default per-query working-memory grant in bytes — the *ceiling* a
    /// single query may request from the shared grant budget.
    pub grant_bytes: usize,
    /// Extra worker threads shared by every parallel query (the workload
    /// manager's engine-wide thread budget; the coordinating thread of each
    /// query is not counted). Parallel plans degrade their effective DOP
    /// when the pool runs dry instead of spawning unpooled threads.
    pub worker_threads: usize,
    /// Total workspace memory shared by all concurrently admitted queries.
    /// The grant broker queues queries FIFO when it is exhausted.
    pub total_grant_bytes: usize,
    /// How long a query waits for admission before taking a reduced grant
    /// (if anything useful is free) or failing with
    /// [`hpd_common::HpdError::GrantWaitTimeout`].
    pub grant_wait_timeout: Duration,
    /// Smallest reduced grant the broker will admit a waiter with.
    pub min_grant_bytes: usize,
    pub lock_timeout: Duration,
    /// Statements retained by the query store ring buffer.
    pub query_store_capacity: usize,
    /// Background maintenance scheduler knobs (tick, per-increment row
    /// budget, heat-decay cadence; see [`MaintenanceConfig`]). Only used
    /// once [`crate::spawn_maintenance`] is called — `db.maintenance(...)`
    /// increments driven by callers ignore the scheduler knobs.
    pub maintenance: MaintenanceConfig,
    /// Write-ahead log / durability knobs (see [`hpd_wal::WalConfig`]).
    pub wal: WalConfig,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            device: DeviceProfile::ram(),
            buffer_pool_bytes: u64::MAX / 4,
            csi: CsiConfig::default(),
            max_dop: 8,
            grant_bytes: 256 << 20,
            worker_threads: 8,
            total_grant_bytes: 1 << 30,
            grant_wait_timeout: Duration::from_secs(5),
            min_grant_bytes: 64 << 10,
            lock_timeout: Duration::from_secs(5),
            query_store_capacity: 256,
            maintenance: MaintenanceConfig::default(),
            wal: WalConfig::default(),
        }
    }
}

impl DbConfig {
    /// The paper's cold-storage setup: HDD RAID with a bounded pool.
    pub fn hdd(buffer_pool_bytes: u64) -> DbConfig {
        DbConfig {
            device: DeviceProfile::hdd_raid(),
            buffer_pool_bytes,
            ..DbConfig::default()
        }
    }
}

pub(crate) struct TableSlot {
    pub(crate) name: String,
    pub(crate) table: RwLock<Table>,
    /// LSN of the last log record whose effect this table already reflects
    /// — the per-table high-water mark a fuzzy checkpoint snapshots and
    /// recovery's redo skip rule compares against.
    pub(crate) applied_lsn: AtomicU64,
}

/// The database instance.
pub struct Database {
    pub(crate) config: DbConfig,
    pub(crate) pool: BufferPool,
    pub(crate) alloc: StorageAllocator,
    pub(crate) tables: RwLock<Vec<Arc<TableSlot>>>,
    pub(crate) txns: TxnManager,
    commit_counter: AtomicU64,
    query_store: QueryStore,
    /// Workload manager: the engine-wide worker-thread budget...
    workers: WorkerPool,
    /// ...and the shared memory-grant admission controller.
    grants: GrantBroker,
    /// The write-ahead log (simulated durability; see `hpd-wal`).
    pub(crate) wal: Wal,
    /// Global commit mutex: serializes WAL append + write apply so log
    /// order equals apply order (the redo-only recovery invariant), and
    /// serializes commits against DDL and fuzzy-checkpoint table captures.
    /// Lock ordering: `commit_lock` is OUTERMOST — always acquired before
    /// the `tables` registry lock or any table's latch.
    pub(crate) commit_lock: Mutex<()>,
    /// Bumped by every catalog or physical-design change (CREATE TABLE,
    /// bulk load, CREATE INDEX, design application). Plan caches key their validity on
    /// it: a cached plan whose epoch is stale may name indexes that no
    /// longer exist or miss ones that now should win.
    ddl_epoch: AtomicU64,
}

impl Database {
    pub fn new(config: DbConfig) -> Database {
        let pool = BufferPool::new(config.buffer_pool_bytes, config.device);
        Database {
            txns: TxnManager::new(config.lock_timeout),
            pool,
            alloc: StorageAllocator::new(),
            tables: RwLock::new(Vec::new()),
            commit_counter: AtomicU64::new(0),
            query_store: QueryStore::new(config.query_store_capacity),
            workers: WorkerPool::new(config.worker_threads),
            grants: GrantBroker::new(config.total_grant_bytes, config.min_grant_bytes),
            wal: Wal::new(config.wal.clone(), config.device),
            commit_lock: Mutex::new(()),
            ddl_epoch: AtomicU64::new(0),
            config,
        }
    }

    /// Monotone counter of catalog / physical-design changes (see field
    /// docs). Cached plans are valid only while this is unchanged.
    pub fn ddl_epoch(&self) -> u64 {
        self.ddl_epoch.load(Ordering::Relaxed)
    }

    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The shared worker-thread pool parallel queries draw from.
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.workers
    }

    /// The memory-grant broker admission-controlling every query.
    pub fn grant_broker(&self) -> &GrantBroker {
        &self.grants
    }

    /// The ring of recently executed statements (query-store-lite).
    pub fn query_store(&self) -> &QueryStore {
        &self.query_store
    }

    // ------------------------------------------------------------------
    // Observability exports
    // ------------------------------------------------------------------

    /// Per-rowgroup access heat for every columnstore index in the
    /// database, as `(table, index, report)` triples (`index` is
    /// `"primary"` or `"secondary"`). Counters are decayed on the
    /// maintenance scheduler's clock ([`Database::decay_heat`]), so scores
    /// weight recent access.
    pub fn heat_report(&self) -> Vec<(String, String, hpd_columnstore::CsiHeatReport)> {
        let slots = self.tables.read().clone();
        let mut out = Vec::new();
        for slot in slots.iter() {
            let table = slot.table.read();
            for (index, report) in table.heat_report() {
                out.push((slot.name.clone(), index, report));
            }
        }
        out
    }

    /// Drain every buffered trace span into Chrome trace-event JSON
    /// (loadable in `chrome://tracing` or ui.perfetto.dev).
    pub fn export_chrome_trace(&self) -> String {
        hpd_obs::trace::chrome_trace_json(&hpd_obs::trace::tracer().drain())
    }

    /// Snapshot the global metrics registry in Prometheus text exposition
    /// format.
    pub fn metrics_prometheus(&self) -> String {
        hpd_obs::global().snapshot().to_prometheus()
    }

    /// Record one executed statement into the query store and the global
    /// metrics registry. Returns the entry's sequence number so commit-time
    /// facts (WAL summary, span tree) can be backfilled via
    /// [`QueryStore::amend`].
    fn record_statement(
        &self,
        kind: &'static str,
        plan: &PhysicalPlan,
        result: &ExecutionResult,
        grant: GrantSummary,
    ) -> u64 {
        let metrics = hpd_obs::global();
        metrics.counter("query.statements").inc();
        metrics
            .histogram("query.latency_us")
            .record(result.metrics.elapsed_us() as u64);
        let seq = self.query_store.next_seq();
        self.query_store.record(StoredStatement {
            seq,
            kind,
            plan_fingerprint: plan_fingerprint(plan),
            plan_root: plan.root.describe(&plan.tables),
            est_rows: plan.root.est_rows,
            est_cost_us: plan.est_cost_us,
            actual_rows: result.metrics.rows_returned as u64,
            elapsed_us: result.metrics.elapsed_us(),
            cpu_us: result.metrics.cpu_us(),
            memory_peak_bytes: result.metrics.memory_peak_bytes as u64,
            dop: result.metrics.dop as u64,
            io: result.metrics.io,
            grant,
            wal: WalSummary::default(),
            trace: None,
        });
        seq
    }

    /// Drop all buffer pool contents — the next run is cold.
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    fn cost_model(&self, grant: usize) -> CostModel {
        self.cost_model_with(grant, None)
    }

    /// Cost model with an optional per-query DOP cap overriding the
    /// configured `max_dop`.
    fn cost_model_with(&self, grant: usize, dop: Option<usize>) -> CostModel {
        let max_dop = dop.unwrap_or(self.config.max_dop).max(1);
        CostModel::new(self.config.device, max_dop, grant)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create an empty table with the given primary index descriptor.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        pk: Vec<usize>,
        primary: IndexDescriptor,
    ) -> Result<()> {
        self.create_table_impl(name.into(), schema, pk, primary, None)
    }

    /// Create an empty *partitioned* table: every partition starts with the
    /// same primary index; heterogeneous per-partition designs are applied
    /// afterwards via [`Database::apply_partition_design`].
    pub fn create_partitioned_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        pk: Vec<usize>,
        primary: IndexDescriptor,
        spec: PartitionSpec,
    ) -> Result<()> {
        self.create_table_impl(name.into(), schema, pk, primary, Some(spec))
    }

    fn create_table_impl(
        &self,
        name: String,
        schema: Schema,
        pk: Vec<usize>,
        primary: IndexDescriptor,
        spec: Option<PartitionSpec>,
    ) -> Result<()> {
        let _commit = self.commit_lock.lock();
        if self.slot(&name).is_ok() {
            return Err(HpdError::DuplicateTable(name));
        }
        // Read into a local: a guard held across `ddl` would deadlock with
        // the registry write that adds the table.
        let next_id = self.tables.read().len() as u32;
        self.ddl(LogRecord::TableCreate {
            table: next_id,
            name,
            schema,
            pk,
            primary,
            partitioning: spec,
        })
    }

    /// The live half of every DDL entry point, after validation: apply the
    /// record through the one interpreter ([`Database::apply_ddl`]), then
    /// log it — synchronously, record + flush before returning — and move
    /// the table's redo skip boundary onto it. Apply-then-log, so a record
    /// that fails to apply is never written. The caller holds `commit_lock`.
    fn ddl(&self, rec: LogRecord) -> Result<()> {
        let t = IoTracker::new();
        let slot = self.apply_ddl(&rec, &t)?;
        if self.wal.enabled() {
            // A bulk load's rows were encoded into this frame's segments:
            // they become the log's as they are.
            let lsn = self.wal.append_flushed(rec.into_frame(), &t);
            slot.applied_lsn.store(lsn, Ordering::Relaxed);
        }
        self.ddl_epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Bulk load rows (replacing current contents) and refresh statistics.
    pub fn load_table(&self, name: &str, rows: Vec<Row>) -> Result<()> {
        self.load_table_from(name, rows)
    }

    /// [`Database::load_table`] of rows that need not exist all at once.
    /// Each row is checked against the schema, encoded into the load's log
    /// record and dropped: from there on the load is that record
    /// ([`Table::bulk_load`]), and the record's segments, allocated as the
    /// rows before them are freed, are what the log keeps. A refused row
    /// leaves table and log untouched.
    pub fn load_table_from(&self, name: &str, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        // Before the commit lock: `rows` may be an iterator that reads, or
        // commits to, this database.
        let schema = self.with_table(name, |t| t.schema().clone())?;
        let mut encoded = EncodedRows::default();
        for row in rows {
            schema.validate_row(&row)?;
            encoded.push(row.values());
        }
        let _commit = self.commit_lock.lock();
        self.ddl(LogRecord::BulkLoad {
            table: self.slot_id(name)? as u32,
            rows: encoded,
        })
    }

    /// Add a secondary index to every part: it is built from each part's
    /// primary; the indexes already there are not read.
    pub fn create_index(&self, table: &str, descriptor: &IndexDescriptor) -> Result<()> {
        let _commit = self.commit_lock.lock();
        self.ddl(LogRecord::IndexCreate {
            table: self.slot_id(table)? as u32,
            def: descriptor.clone(),
        })
    }

    /// Drop the secondary index `descriptor` from every part, as one logged
    /// operation: every part has it or none loses it, and a crash leaves it
    /// on all parts or on none. The other indexes are not read.
    pub fn drop_index(&self, table: &str, descriptor: &IndexDescriptor) -> Result<()> {
        let _commit = self.commit_lock.lock();
        self.ddl(LogRecord::IndexDrop {
            table: self.slot_id(table)? as u32,
            def: descriptor.clone(),
        })
    }

    /// Move a table to `design`: an index whose descriptor the design
    /// repeats stays as it stands, the others are dropped, the missing ones
    /// are built, and the primary is rebuilt only if its descriptor changes
    /// (`TablePart::set_design`). The rows, their write timestamps and old
    /// versions are untouched — open snapshots read on — and the table's
    /// statistics are refreshed. A design every part shares is one
    /// `DesignChange`; otherwise each part whose list changes gets its own
    /// [`Database::apply_partition_design`].
    pub fn apply_design(&self, design: &TableDesign) -> Result<()> {
        design.validate()?;
        let table = &design.table;
        let Some(indexes) = design.indexes() else {
            let current = self.with_table(table, Table::designs)?;
            if current.len() != design.parts.len() {
                return Err(HpdError::Constraint(format!(
                    "table {table} has {} parts; the design names {}",
                    current.len(),
                    design.parts.len()
                )));
            }
            for (part, (now, want)) in current.iter().zip(&design.parts).enumerate() {
                if now != want {
                    self.apply_partition_design(table, part, &want[0], &want[1..])?;
                }
            }
            return Ok(());
        };
        let _commit = self.commit_lock.lock();
        self.ddl(LogRecord::DesignChange {
            table: self.slot_id(table)? as u32,
            indexes: indexes.to_vec(),
        })
    }

    /// Replace the physical design of ONE partition of a partitioned table,
    /// leaving the other partitions untouched — the heterogeneous designs
    /// the advisor recommends ("B+ tree on the hot partition, CSI on cold
    /// history"). As [`Database::apply_design`], on that partition's indexes
    /// only (statistics are the table's and stay).
    pub fn apply_partition_design(
        &self,
        table: &str,
        part: usize,
        primary: &IndexDescriptor,
        secondaries: &[IndexDescriptor],
    ) -> Result<()> {
        let indexes: Vec<_> = std::iter::once(primary)
            .chain(secondaries)
            .cloned()
            .collect();
        validate_design(table, &indexes)?;
        let _commit = self.commit_lock.lock();
        let parts = self.with_table(table, |t| t.partitioning().map(|_| t.num_parts()))?;
        let Some(parts) = parts else {
            return Err(HpdError::Constraint(format!(
                "table {table} is not partitioned; use apply_design"
            )));
        };
        if part >= parts {
            return Err(HpdError::Constraint(format!(
                "table {table} has {parts} partitions; no partition {part}"
            )));
        }
        self.ddl(LogRecord::PartitionDesignChange {
            table: self.slot_id(table)? as u32,
            part: part as u32,
            indexes,
        })
    }

    /// Apply a full configuration across tables.
    pub fn apply_configuration(&self, configuration: &Configuration) -> Result<()> {
        configuration.validate()?;
        for design in &configuration.tables {
            self.apply_design(design)?;
        }
        Ok(())
    }

    /// Every table slot, snapshotted outside the registry lock.
    pub(crate) fn tables_snapshot(&self) -> Vec<Arc<TableSlot>> {
        self.tables.read().clone()
    }

    pub(crate) fn slot(&self, name: &str) -> Result<Arc<TableSlot>> {
        self.tables
            .read()
            .iter()
            .find(|s| s.name == name)
            .cloned()
            .ok_or_else(|| HpdError::UnknownTable(name.to_string()))
    }

    pub(crate) fn slot_id(&self, name: &str) -> Result<usize> {
        self.tables
            .read()
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| HpdError::UnknownTable(name.to_string()))
    }

    /// Run `f` with shared access to the named table.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Result<R> {
        let slot = self.slot(name)?;
        let guard = slot.table.read();
        Ok(f(&guard))
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Take a fuzzy checkpoint now: snapshot the catalog, every table's
    /// rows, and per-table applied-LSN high-water marks; install the image
    /// and truncate the log below the checkpoint-begin record. No-op when
    /// the WAL is disabled.
    pub fn checkpoint(&self) -> Result<()> {
        let _commit = self.commit_lock.lock();
        self.checkpoint_locked()
    }

    /// Checkpoint body; the caller must hold `commit_lock` (commit triggers
    /// auto-checkpoints while still holding it).
    pub(crate) fn checkpoint_locked(&self) -> Result<()> {
        if !self.wal.enabled() {
            return Ok(());
        }
        // Root span: auto-checkpoints run on the committing thread but are
        // background work, not part of the triggering query.
        let mut span = hpd_obs::trace::root_span("background.checkpoint");
        let cpu_start = Instant::now();
        let tracker = IoTracker::new();
        let begin_lsn = self.wal.append(&LogRecord::CheckpointBegin);
        self.wal.flush(&tracker);
        let slots = self.tables.read().clone();
        if faults::fire(faults::sites::CRASH_IN_CHECKPOINT) {
            // Crash after the begin record but before install: the previous
            // checkpoint (if any) stays valid; the stray CheckpointBegin is
            // ignored by redo.
            return Err(HpdError::Crashed(faults::sites::CRASH_IN_CHECKPOINT.into()));
        }
        // The image is written table by table into the segments of the image
        // the last checkpoint retired; each table's rows are copied in as its
        // primary index lends them, already encoded.
        let mut image = self.wal.image_writer(begin_lsn, self.txns.ts_hwm());
        for slot in &slots {
            // One read lock spans the redo boundary and the rows it bounds.
            let table = slot.table.read();
            // Partitioned tables additionally capture each partition's own
            // (possibly heterogeneous) index list; rows stay concatenated and
            // recovery's bulk load re-routes them.
            let parts = match table.partitioning() {
                Some(_) => table.designs(),
                None => Vec::new(),
            };
            let entry = TableEntry {
                name: slot.name.clone(),
                schema: table.schema().clone(),
                pk: table.pk().to_vec(),
                indexes: table.part(0).descriptors(),
                partitioning: table.partitioning().cloned(),
                parts,
                applied_lsn: slot.applied_lsn.load(Ordering::Relaxed),
            };
            image.table(&entry, |sink| {
                table.for_each_encoded_row(&self.pool, &tracker, sink)
            });
        }
        let table_count = slots.len();
        self.wal.install_checkpoint(image, &tracker);
        self.wal.append(&LogRecord::CheckpointEnd);
        self.wal.flush(&tracker);
        let m = hpd_obs::global();
        m.counter("background.checkpoint.runs").inc();
        let io = tracker.snapshot();
        m.counter("background.io.bytes_read").add(io.bytes_read);
        m.counter("background.io.bytes_written")
            .add(io.bytes_written);
        m.histogram("background.checkpoint.cpu_us")
            .record(cpu_start.elapsed().as_micros() as u64);
        if span.is_recording() {
            span.attr("tables", table_count);
        }
        Ok(())
    }

    /// Everything a crash preserves: the flushed log and the installed
    /// checkpoint image. Feed to [`Database::recover`].
    pub fn wal_durable(&self) -> hpd_wal::WalDurable {
        self.wal.durable()
    }

    // ------------------------------------------------------------------
    // Planning / what-if
    // ------------------------------------------------------------------

    /// Optimizer context for one table under its *materialized* design.
    pub fn context_for(&self, name: &str) -> Result<TableContext> {
        self.with_table(name, |t| table_context(name, t))
    }

    /// Plan a query against the materialized designs.
    pub fn plan(&self, query: &SelectQuery) -> Result<PhysicalPlan> {
        self.plan_with_grant(query, self.config.grant_bytes)
    }

    pub fn plan_with_grant(&self, query: &SelectQuery, grant: usize) -> Result<PhysicalPlan> {
        let contexts = query
            .tables
            .iter()
            .map(|t| self.context_for(&t.name))
            .collect::<Result<Vec<_>>>()?;
        Optimizer::new(self.cost_model(grant)).plan(query, &contexts)
    }

    /// The **what-if API**: plan the query as if each table in `overrides`
    /// had the given (possibly hypothetical) index metadata instead of its
    /// materialized indexes — one meta set per part (see
    /// [`TableContext::with_design`]), so a per-partition design ("B+ tree
    /// on the hot partition, CSI on cold history") is costed over the real
    /// scatter-gather. Hypothetical columnstore metas carry per-column size
    /// estimates (paper §4.2).
    pub fn what_if_plan(
        &self,
        query: &SelectQuery,
        overrides: &HashMap<String, Vec<Vec<IndexMeta>>>,
    ) -> Result<PhysicalPlan> {
        let contexts = query
            .tables
            .iter()
            .map(|t| {
                let ctx = self.context_for(&t.name)?;
                match overrides.get(&t.name) {
                    Some(part_metas) => ctx.with_design(part_metas),
                    None => Ok(ctx),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Optimizer::new(self.cost_model(self.config.grant_bytes)).plan(query, &contexts)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// The unified execution entry point: build options fluently, then
    /// [`run`](QueryBuilder::run).
    ///
    /// ```ignore
    /// db.query(&stmt).run()?;                            // autocommit
    /// db.query(&select).grant_bytes(16 << 10).run()?;    // constrained grant
    /// db.query(&select).dop(4).analyze().run()?;         // EXPLAIN ANALYZE
    /// ```
    ///
    /// Accepts `&Statement` or `&SelectQuery` (see [`StmtRef`]).
    pub fn query<'db, 'q>(&'db self, stmt: impl Into<StmtRef<'q>>) -> QueryBuilder<'db, 'q> {
        QueryBuilder {
            db: self,
            stmt: stmt.into(),
            grant_bytes: None,
            dop: None,
            analyze: false,
            isolation: IsolationLevel::ReadCommitted,
        }
    }

    pub fn session(&self, isolation: IsolationLevel) -> Session<'_> {
        Session {
            db: self,
            isolation,
            grant: self.config.grant_bytes,
            dop: None,
        }
    }
}

/// A borrowed statement accepted by [`Database::query`]: either a full
/// [`Statement`] or a bare [`SelectQuery`].
#[derive(Debug, Clone, Copy)]
pub enum StmtRef<'q> {
    Statement(&'q Statement),
    Select(&'q SelectQuery),
}

impl<'q> From<&'q Statement> for StmtRef<'q> {
    fn from(s: &'q Statement) -> StmtRef<'q> {
        StmtRef::Statement(s)
    }
}

impl<'q> From<&'q SelectQuery> for StmtRef<'q> {
    fn from(q: &'q SelectQuery) -> StmtRef<'q> {
        StmtRef::Select(q)
    }
}

/// Fluent executor returned by [`Database::query`].
#[must_use = "call .run() to execute the statement"]
pub struct QueryBuilder<'db, 'q> {
    db: &'db Database,
    stmt: StmtRef<'q>,
    /// Per-query grant-request ceiling; `None` uses the configured default.
    grant_bytes: Option<usize>,
    /// Per-query DOP cap overriding the configured `max_dop`.
    dop: Option<usize>,
    /// Collect per-operator actuals (EXPLAIN ANALYZE).
    analyze: bool,
    isolation: IsolationLevel,
}

impl<'db, 'q> QueryBuilder<'db, 'q> {
    /// Cap this query's grant request at `n` bytes (the paper's
    /// constrained-grant experiments).
    pub fn grant_bytes(mut self, n: usize) -> Self {
        self.grant_bytes = Some(n);
        self
    }

    /// Cap this query's degree of parallelism.
    pub fn dop(mut self, k: usize) -> Self {
        self.dop = Some(k);
        self
    }

    /// Collect per-operator actuals; the result's `analyze` field carries
    /// the report. Fails at [`run`](QueryBuilder::run) for non-SELECTs.
    pub fn analyze(mut self) -> Self {
        self.analyze = true;
        self
    }

    pub fn isolation(mut self, level: IsolationLevel) -> Self {
        self.isolation = level;
        self
    }

    /// Execute as an autocommit statement under the configured options.
    pub fn run(self) -> Result<ExecutionResult> {
        let mut session = self.db.session(self.isolation);
        if let Some(g) = self.grant_bytes {
            session = session.with_grant(g);
        }
        if let Some(d) = self.dop {
            session = session.with_dop(d);
        }
        match (self.stmt, self.analyze) {
            (StmtRef::Statement(Statement::Select(q)), false) | (StmtRef::Select(q), false) => {
                session.run_in_txn(|txn| txn.select(q))
            }
            (StmtRef::Statement(Statement::Select(q)), true) | (StmtRef::Select(q), true) => {
                session.run_in_txn(|txn| txn.select_analyzed(q))
            }
            (StmtRef::Statement(s), false) => session.run(s),
            (StmtRef::Statement(s @ (Statement::Update(_) | Statement::Delete(_))), true) => {
                session.run_in_txn(|txn| {
                    txn.analyze_writes = true;
                    txn.execute(s)
                })
            }
            (StmtRef::Statement(Statement::Insert(_)), true) => Err(HpdError::InvalidQuery(
                "analyze() applies to SELECT, UPDATE, and DELETE statements only".into(),
            )),
        }
    }
}

/// A connection-like handle binding an isolation level, grant, and DOP cap.
#[derive(Clone, Copy)]
pub struct Session<'db> {
    db: &'db Database,
    isolation: IsolationLevel,
    grant: usize,
    dop: Option<usize>,
}

impl<'db> Session<'db> {
    pub fn with_grant(mut self, grant: usize) -> Session<'db> {
        self.grant = grant;
        self
    }

    /// Cap the optimizer's DOP choice for this session's statements.
    pub fn with_dop(mut self, dop: usize) -> Session<'db> {
        self.dop = Some(dop);
        self
    }

    pub fn begin(&self) -> Txn<'db> {
        // A snapshot does not begin inside a commit: a commit draws its
        // timestamp before it applies its writes, so a start drawn between
        // the two would see that commit's rows appear mid-transaction.
        let settled =
            (self.isolation == IsolationLevel::Snapshot).then(|| self.db.commit_lock.lock());
        let (txn_id, start_ts) = self.db.txns.begin();
        drop(settled);
        Txn {
            db: self.db,
            isolation: self.isolation,
            grant: self.grant,
            dop: self.dop,
            txn_id,
            start_ts,
            writes: Vec::new(),
            write_io: IoTracker::new(),
            finished: false,
            analyze_writes: false,
            last_stmt_seq: None,
        }
    }

    /// Execute one statement in its own transaction. The returned metrics
    /// cover the full statement including commit-time index maintenance.
    pub fn run(&self, stmt: &Statement) -> Result<ExecutionResult> {
        self.run_in_txn(|txn| txn.execute(stmt))
    }

    /// Run `f` against a fresh autocommit transaction, folding commit-time
    /// work (locking, write apply) into the statement's metrics.
    pub(crate) fn run_in_txn(
        &self,
        f: impl FnOnce(&mut Txn<'db>) -> Result<ExecutionResult>,
    ) -> Result<ExecutionResult> {
        let start = Instant::now();
        // Root span for the whole statement lifecycle; child spans
        // (select/optimize/admission/execute/commit/wal.flush) nest under
        // it because this guard stays current for the closure and commit.
        let mut query_span = hpd_obs::trace::span("query");
        let mut txn = self.begin();
        let result = f(&mut txn);
        match result {
            Ok(mut r) => {
                let last_seq = txn.last_stmt_seq;
                let (commit_io, wal) = txn.commit()?;
                let wall = start.elapsed();
                // Time outside the query executor (locking, write apply) is
                // serial: extend cpu and critical path by it.
                let extra = wall.saturating_sub(r.metrics.wall);
                r.metrics.wall = wall;
                r.metrics.cpu += extra;
                r.metrics.critical_path += extra;
                r.metrics.io += commit_io;
                if self.db.wal.enabled() {
                    if let Some(report) = r.analyze.as_deref_mut() {
                        report.wal = Some(wal);
                    }
                }
                // Backfill the query-store entry with facts that only
                // exist after commit: the WAL summary and, when tracing is
                // on, the statement's full span tree.
                if let Some(seq) = last_seq {
                    if wal.records > 0 {
                        self.db.query_store.amend(seq, |s| s.wal = wal);
                    }
                    if query_span.is_recording() {
                        query_span.attr("rows", r.metrics.rows_returned);
                        let root_id = query_span.id();
                        let start_us = query_span.start_us();
                        drop(query_span);
                        let spans = hpd_obs::trace::tracer().spans_since(start_us);
                        if let Some(tree) = hpd_obs::trace::span_tree_json(&spans, root_id) {
                            self.db.query_store.amend(seq, |s| s.trace = Some(tree));
                        }
                    }
                }
                Ok(r)
            }
            Err(e) => {
                txn.abort();
                Err(e)
            }
        }
    }
}

/// An open transaction.
pub struct Txn<'db> {
    db: &'db Database,
    isolation: IsolationLevel,
    grant: usize,
    dop: Option<usize>,
    txn_id: u64,
    start_ts: u64,
    writes: Vec<WriteOp>,
    write_io: IoTracker,
    finished: bool,
    /// Route write statements' target-row reads through the profiled select
    /// path (EXPLAIN ANALYZE for UPDATE/DELETE).
    analyze_writes: bool,
    /// Query-store sequence number of the most recent statement this txn
    /// recorded; `run_in_txn` backfills that entry with commit-time facts.
    last_stmt_seq: Option<u64>,
}

impl<'db> Txn<'db> {
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// This transaction's lock-owner id.
    pub fn id(&self) -> u64 {
        self.txn_id
    }

    /// Start timestamp (snapshot reads see state as of this point). Exposed
    /// so oracles can mirror the engine's timestamp allocation.
    pub fn start_ts(&self) -> u64 {
        self.start_ts
    }

    pub fn execute(&mut self, stmt: &Statement) -> Result<ExecutionResult> {
        match stmt {
            Statement::Select(q) => self.select(q),
            Statement::Update(u) => self.update(u),
            Statement::Delete(d) => self.delete(d),
            Statement::Insert(i) => self.insert(i),
        }
    }

    /// Execute a select, applying isolation-level read behaviour.
    pub fn select(&mut self, query: &SelectQuery) -> Result<ExecutionResult> {
        self.select_impl(query, false, "select")
    }

    /// Execute a select with per-operator instrumentation (the result's
    /// `analyze` field is always populated).
    pub fn select_analyzed(&mut self, query: &SelectQuery) -> Result<ExecutionResult> {
        self.select_impl(query, true, "select")
    }

    /// Plan, admit and run `query`, and record it in the query store as a
    /// statement of `kind`.
    fn select_impl(
        &mut self,
        query: &SelectQuery,
        profile: bool,
        kind: &'static str,
    ) -> Result<ExecutionResult> {
        let mut stmt_span = hpd_obs::trace::span("select");
        if stmt_span.is_recording() {
            let tables: Vec<&str> = query.tables.iter().map(|t| t.name.as_str()).collect();
            stmt_span.attr("tables", tables.join(","));
        }
        // Serializable readers hold shared table locks to commit.
        if self.isolation == IsolationLevel::Serializable {
            for t in &query.tables {
                let id = self.db.slot_id(&t.name)?;
                self.db.txns.locks.acquire(
                    self.txn_id,
                    &LockKey::Table(id),
                    LockMode::S,
                    self.db.txns.lock_timeout,
                )?;
            }
        }
        // Take read guards on all tables (registry order avoids deadlock).
        let slots: Vec<Arc<TableSlot>> = query
            .tables
            .iter()
            .map(|t| self.db.slot(&t.name))
            .collect::<Result<Vec<_>>>()?;
        let guards: Vec<parking_lot::RwLockReadGuard<'_, Table>> =
            slots.iter().map(|s| s.table.read()).collect();
        let table_refs: Vec<&Table> = guards.iter().map(|g| &**g).collect();

        // Snapshot overlays: the optimizer plans a correction of the tables
        // that have rows to correct.
        let mut overlays = HashMap::new();
        if self.isolation == IsolationLevel::Snapshot {
            for (i, table) in table_refs.iter().enumerate() {
                let overlay = snapshot_overlay(table, self.start_ts);
                if !overlay.is_empty() {
                    overlays.insert(i, overlay);
                }
            }
        }

        // Plan against the guarded tables' current metadata.
        let contexts: Vec<TableContext> = (query.tables.iter().zip(&table_refs).enumerate())
            .map(|(i, (t, table))| TableContext {
                snapshot_overlay: overlays.contains_key(&i),
                ..table_context(&t.name, table)
            })
            .collect();
        let optimize_start = Instant::now();
        let plan = {
            let _s = hpd_obs::trace::span("optimize");
            Optimizer::new(self.db.cost_model_with(self.grant, self.dop)).plan(query, &contexts)?
        };
        let optimize_us = optimize_start.elapsed().as_micros() as u64;

        // Admission control: request the optimizer's memory estimate (with
        // slack for estimation error) from the shared grant broker, capped
        // by the session's per-query grant ceiling. The broker may block
        // behind earlier queries, reduce the grant (operators then spill),
        // or time out.
        let requested = plan
            .est_memory_bytes()
            .saturating_mul(2)
            .max(self.db.config.min_grant_bytes)
            .min(self.grant.max(1));
        let lease = {
            let mut s = hpd_obs::trace::span("admission");
            let lease = self
                .db
                .grants
                .acquire(requested, self.db.config.grant_wait_timeout)?;
            if s.is_recording() {
                s.attr("requested_bytes", requested);
                s.attr("granted_bytes", lease.granted_bytes());
                s.attr("wait_us", lease.wait().as_micros());
                if lease.is_reduced() {
                    s.attr("reduced", true);
                }
            }
            lease
        };

        let mut runner = QueryRunner::with_resources(
            table_refs,
            self.db.pool(),
            lease.grant(),
            self.db.workers.clone(),
        )
        .with_overlays(overlays);
        if profile {
            runner = runner.with_profile();
        }
        let mut result = runner.run(&plan)?;
        let grant = GrantSummary::of(&lease);
        if let Some(report) = result.analyze.as_deref_mut() {
            report.grant = Some(grant);
            report.timeline = Some(Timeline {
                optimize_us,
                execute_us: result.metrics.elapsed_us() as u64,
            });
        }
        self.last_stmt_seq = Some(self.db.record_statement(kind, &plan, &result, grant));
        Ok(result)
    }

    /// UPDATE: identify target rows through the optimizer, lock them, and
    /// buffer the writes for commit.
    pub fn update(&mut self, stmt: &UpdateStmt) -> Result<ExecutionResult> {
        let table_id = self.db.slot_id(&stmt.table)?;
        let pk = self.db.with_table(&stmt.table, |t| t.pk().to_vec())?;
        // Refused here, before anything is locked or buffered: an error
        // raised while the commit applies would leave the transaction's
        // earlier writes in place.
        if stmt.set.iter().any(|(col, _)| pk.contains(col)) {
            return Err(HpdError::Constraint(
                "updating primary key columns is not supported".into(),
            ));
        }
        let mut rows = self.write_target_rows("update", &stmt.table, &stmt.predicate, stmt.top)?;
        // Lock targets in primary-key order regardless of the access path
        // that found them, so lock acquisition (and thus which conflict
        // surfaces first under contention) does not depend on the physical
        // design, and concurrent writers cannot deadlock by locking the
        // same rows in opposite orders.
        rows.rows.sort_by_key(|r| r.key(&pk));
        let mut result_rows = 0usize;
        for row in &rows.rows {
            let key = row.key(&pk);
            self.lock_row(table_id, key.clone())?;
            self.check_si_conflict(&stmt.table, &key)?;
            self.writes.push(WriteOp::Update {
                table: table_id,
                key,
                set: stmt.set.clone(),
            });
            result_rows += 1;
        }
        Ok(ExecutionResult {
            rows: vec![Row::new(vec![Value::Int64(result_rows as i64)])],
            metrics: rows.metrics,
            analyze: rows.analyze,
        })
    }

    /// DELETE: same two-phase shape as update.
    pub fn delete(&mut self, stmt: &DeleteStmt) -> Result<ExecutionResult> {
        let mut rows = self.write_target_rows("delete", &stmt.table, &stmt.predicate, stmt.top)?;
        let table_id = self.db.slot_id(&stmt.table)?;
        let pk = self.db.with_table(&stmt.table, |t| t.pk().to_vec())?;
        // Same deterministic lock order as `update` (see there).
        rows.rows.sort_by_key(|r| r.key(&pk));
        let mut n = 0usize;
        for row in &rows.rows {
            let key = row.key(&pk);
            self.lock_row(table_id, key.clone())?;
            self.check_si_conflict(&stmt.table, &key)?;
            self.writes.push(WriteOp::Delete {
                table: table_id,
                key,
            });
            n += 1;
        }
        Ok(ExecutionResult {
            rows: vec![Row::new(vec![Value::Int64(n as i64)])],
            metrics: rows.metrics,
            analyze: rows.analyze,
        })
    }

    /// INSERT: lock the new keys and buffer.
    pub fn insert(&mut self, stmt: &InsertStmt) -> Result<ExecutionResult> {
        let table_id = self.db.slot_id(&stmt.table)?;
        let (pk, schema) = self
            .db
            .with_table(&stmt.table, |t| (t.pk().to_vec(), t.schema().clone()))?;
        self.db.txns.locks.acquire(
            self.txn_id,
            &LockKey::Table(table_id),
            LockMode::IX,
            self.db.txns.lock_timeout,
        )?;
        let n = stmt.rows.len();
        for row in &stmt.rows {
            schema.validate_row(row)?;
            let key = row.key(&pk);
            self.lock_row(table_id, key)?;
            self.writes.push(WriteOp::Insert {
                table: table_id,
                row: row.clone(),
            });
        }
        Ok(ExecutionResult {
            rows: vec![Row::new(vec![Value::Int64(n as i64)])],
            metrics: empty_metrics(),
            analyze: None,
        })
    }

    /// Read phase of a write statement of `kind`: full rows matching the
    /// predicate.
    fn write_target_rows(
        &mut self,
        kind: &'static str,
        table: &str,
        predicate: &hpd_common::Expr,
        top: Option<usize>,
    ) -> Result<ExecutionResult> {
        let table_id = self.db.slot_id(table)?;
        // Serializable write statements take SIX up front: the target-row
        // SELECT below will request S on the same table, and two writers
        // that each held a bare IX while waiting for the other's IX to clear
        // would time out symmetrically and retry into the same state.
        let mode = if self.isolation == IsolationLevel::Serializable {
            LockMode::Six
        } else {
            LockMode::IX
        };
        self.db.txns.locks.acquire(
            self.txn_id,
            &LockKey::Table(table_id),
            mode,
            self.db.txns.lock_timeout,
        )?;
        let arity = self.db.with_table(table, |t| t.schema().len())?;
        let query = SelectQuery {
            tables: vec![crate::query::TableInput::with_predicate(
                table,
                predicate.clone(),
            )],
            select: (0..arity)
                .map(|c| crate::query::ColRef::new(0, c))
                .collect(),
            limit: top,
            ..Default::default()
        };
        self.select_impl(&query, self.analyze_writes, kind)
    }

    fn lock_row(&mut self, table_id: usize, key: Key) -> Result<()> {
        self.db.txns.locks.acquire(
            self.txn_id,
            &LockKey::Row(table_id, key),
            LockMode::X,
            self.db.txns.lock_timeout,
        )
    }

    /// Early first-committer-wins check under snapshot isolation.
    fn check_si_conflict(&self, table: &str, key: &Key) -> Result<()> {
        if self.isolation != IsolationLevel::Snapshot {
            return Ok(());
        }
        let conflicted = self
            .db
            .with_table(table, |t| t.last_write_ts(key) > self.start_ts)?;
        if conflicted {
            return Err(HpdError::SerializationFailure(format!(
                "row {key:?} of {table} was modified after this snapshot began"
            )));
        }
        Ok(())
    }

    /// Apply buffered writes and release locks. Returns the write-phase I/O
    /// and the commit's log activity (all zero for a read-only commit).
    ///
    /// The whole commit runs under the database's commit lock so the WAL
    /// append order equals the apply order — the invariant redo-only
    /// recovery depends on. Crash points (`wal.crash.*`) abort the commit
    /// at well-defined durability boundaries; the differential harness
    /// recovers from the surviving log and checks the result.
    pub fn commit(mut self) -> Result<(IoSnapshot, WalSummary)> {
        let mut commit_span = hpd_obs::trace::span("commit");
        let _commit = self.db.commit_lock.lock();
        let commit_ts = self.db.txns.commit_ts();
        let writes = std::mem::take(&mut self.writes);
        let pool = self.db.pool();
        let tracker = self.write_io.clone();

        // Final first-committer-wins validation under snapshot isolation.
        if self.isolation == IsolationLevel::Snapshot {
            let tables = self.db.tables.read().clone();
            for op in &writes {
                if let Some(key) = op.key() {
                    let slot = &tables[op.table()];
                    if slot.table.read().last_write_ts(key) > self.start_ts {
                        self.finish();
                        return Err(HpdError::SerializationFailure(format!(
                            "row {key:?} modified concurrently"
                        )));
                    }
                }
            }
        }

        if faults::fire(faults::sites::COMMIT_FAIL) {
            // Injected failure between validation and apply: the transaction
            // must vanish without a trace — locks released, no write visible.
            self.finish();
            return Err(HpdError::FaultInjected("commit failed before apply".into()));
        }

        let tables = self.db.tables.read().clone();
        // Read-only commits append nothing — they are invisible to the log.
        let wal_on = self.db.wal.enabled() && !writes.is_empty();
        let mut records = 0u64;
        let mut wal = WalSummary::default();
        if wal_on {
            self.db.wal.append(&LogRecord::TxnBegin {
                txn_id: self.txn_id,
            });
            records += 1;
        }
        let mut apply_result: Result<()> = Ok(());
        for op in &writes {
            if faults::fire(faults::sites::CRASH_MID_APPLY) {
                // Crash with the commit record unwritten: the transaction
                // must be invisible after recovery.
                self.finish();
                return Err(HpdError::Crashed(faults::sites::CRASH_MID_APPLY.into()));
            }
            let table = op.table() as u32;
            let mut t = tables[op.table()].table.write();
            let change = match op {
                WriteOp::Insert { row, .. } => RowChange::Insert(row),
                WriteOp::Delete { key, .. } => RowChange::Delete(key),
                WriteOp::Update { key, set, .. } => RowChange::Update(key, PostImage::Set(set)),
            };
            let applied = match apply_write(&mut t, change, commit_ts, pool, &tracker) {
                Ok(applied) => applied,
                Err(e) => {
                    apply_result = Err(e);
                    break;
                }
            };
            if !wal_on {
                continue;
            }
            // The record describes what was just applied, built from the
            // images the apply located. Nothing is durable before the commit
            // flush, so logging after the apply is unobservable.
            let part = applied.part as u32;
            let rec = match op {
                WriteOp::Insert { row, .. } => LogRecord::Insert {
                    table,
                    part,
                    row: row.clone(),
                },
                // Logged unconditionally: redo of a no-op delete is a no-op,
                // so the final state matches either way.
                WriteOp::Delete { key, .. } => LogRecord::Delete {
                    table,
                    part,
                    key: key.clone(),
                },
                // Value logging: the record carries the post-image, so redo
                // never re-evaluates expressions. No row, no record.
                WriteOp::Update { key, .. } => match applied.post_image {
                    Some(new_row) => LogRecord::Update {
                        table,
                        part,
                        key: key.clone(),
                        new_row,
                    },
                    None => continue,
                },
            };
            self.db.wal.append(&rec);
            records += 1;
        }

        if wal_on {
            match &apply_result {
                Ok(()) => {
                    if faults::fire(faults::sites::CRASH_BEFORE_COMMIT_FLUSH) {
                        // The commit record was never appended: this
                        // transaction is lost by the crash, by design.
                        self.finish();
                        return Err(HpdError::Crashed(
                            faults::sites::CRASH_BEFORE_COMMIT_FLUSH.into(),
                        ));
                    }
                    let commit_lsn = self.db.wal.append(&LogRecord::TxnCommit {
                        txn_id: self.txn_id,
                        commit_ts,
                    });
                    records += 1;
                    let flush_start = Instant::now();
                    let (flushed, deferred) = {
                        let mut s = hpd_obs::trace::span("wal.flush");
                        let r = self.db.wal.commit_flush(&tracker);
                        if s.is_recording() {
                            s.attr("bytes", r.0);
                            if r.1 {
                                s.attr("deferred", true);
                            }
                        }
                        r
                    };
                    wal = WalSummary {
                        records,
                        bytes_flushed: flushed,
                        flushes: (flushed > 0) as u64,
                        flush_us: flush_start.elapsed().as_micros() as u64,
                        deferred,
                    };
                    if faults::fire(faults::sites::CRASH_AFTER_COMMIT_FLUSH) {
                        // Under sync_commit the flush just made this txn
                        // durable: recovery must replay it.
                        self.finish();
                        return Err(HpdError::Crashed(
                            faults::sites::CRASH_AFTER_COMMIT_FLUSH.into(),
                        ));
                    }
                    // Advance the touched tables' redo skip boundary to the
                    // commit record (all this txn's write records precede it).
                    let mut touched: Vec<usize> = writes.iter().map(WriteOp::table).collect();
                    touched.sort_unstable();
                    touched.dedup();
                    for id in touched {
                        tables[id].applied_lsn.store(commit_lsn, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    // Left pending: an abort needs no durability, and redo
                    // discards the buffered records either way.
                    self.db.wal.append(&LogRecord::TxnAbort {
                        txn_id: self.txn_id,
                    });
                }
            }
        }

        // Periodic version GC.
        let commits = self.db.commit_counter.fetch_add(1, Ordering::Relaxed);
        if commits % 256 == 255 {
            let oldest = self.db.txns.oldest_active().min(self.start_ts);
            for slot in tables.iter() {
                slot.table.write().prune_versions(oldest);
            }
        }

        self.finish();

        if commit_span.is_recording() {
            commit_span.attr("writes", writes.len());
            if wal_on {
                commit_span.attr("wal_records", records);
            }
        }
        drop(commit_span);

        // Auto-checkpoint while still holding the commit lock, so no commit
        // can land between the trigger and the snapshot.
        let interval = self.db.config.wal.checkpoint_every_commits;
        if apply_result.is_ok() && interval > 0 && (commits + 1).is_multiple_of(interval) {
            self.db.checkpoint_locked()?;
        }

        apply_result.map(|()| (tracker.snapshot(), wal))
    }

    pub fn abort(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.db.txns.locks.release_all(self.txn_id);
            self.db.txns.finish(self.start_ts);
        }
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Compute the snapshot overlay for one table at `ts`: rows rewritten after
/// the snapshot are hidden and their old versions shown. Walking the
/// write-timestamp map per query is the (real) CPU overhead snapshot reads
/// pay relative to serializable reads.
fn snapshot_overlay(table: &Table, ts: u64) -> TableOverlay {
    if faults::fire(faults::sites::OVERLAY_SKIP) {
        // Deliberate-bug knob: pretend no row was rewritten since `ts`, so
        // snapshot reads leak committed-after-snapshot state. Exists to
        // prove the harness detects and shrinks an isolation violation.
        return TableOverlay::default();
    }
    let mut overlay = TableOverlay::default();
    for key in table.rewritten_since(ts) {
        overlay.removed.insert(key.clone());
        if let Some(old) = table.version_at(&key, ts) {
            overlay.added.push(old.clone());
        }
    }
    overlay
}

/// Build the optimizer's view of a table: schema, stats, the partitioning
/// spec if any, and every part's row count and index metas. A single part's
/// cardinality is the table statistic the planner has always costed with.
fn table_context(name: &str, t: &Table) -> TableContext {
    let parts = (0..t.num_parts())
        .map(|p| PartInfo {
            rows: if t.num_parts() == 1 {
                t.stats().rows
            } else {
                t.part(p).row_count()
            },
            metas: t.part_metas(p),
        })
        .collect();
    TableContext {
        name: name.to_string(),
        schema: t.schema().clone(),
        pk: t.pk().to_vec(),
        stats: t.stats().clone(),
        partitioning: t.partitioning().cloned(),
        parts,
        snapshot_overlay: false,
    }
}

fn empty_metrics() -> ExecMetrics {
    ExecMetrics {
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        critical_path: Duration::ZERO,
        io: IoSnapshot::default(),
        io_dop: 1,
        dop: 1,
        rows_returned: 0,
        memory_peak_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use hpd_common::DataType;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// One row version of the model: what snapshots in `start..end` see of
    /// key `key` (a live version ends at `u64::MAX`).
    struct Version {
        key: i32,
        start: u64,
        end: u64,
        row: Row,
    }

    /// Random commits through [`Table::record_version`] among readers'
    /// snapshots, and [`Table::prune_versions`] at horizons at or below the
    /// oldest live snapshot: at every live snapshot, the keys
    /// `snapshot_overlay` hides and the old rows it adds are what a naive
    /// list of every version ever written says.
    #[test]
    fn the_version_map_overlays_what_a_list_of_every_version_shows() {
        const KEYS: i32 = 8;
        let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int32)]);
        let row = |k: i32, v: u64| Row::new(vec![Value::Int32(k), Value::Int32(v as i32)]);
        let key = |k: i32| Key::single(Value::Int32(k));
        let (mut checked, mut pruned) = (0, 0);
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
            let (csi, alloc) = (CsiConfig::default(), StorageAllocator::new());
            let mut table = Table::create("t", schema.clone(), vec![0], &primary, csi, alloc)
                .expect("a one-part table");
            // Half the keys were loaded before any snapshot, at timestamp 0.
            let mut model: Vec<Version> = (0..KEYS / 2)
                .map(|k| Version {
                    key: k,
                    start: 0,
                    end: u64::MAX,
                    row: row(k, 0),
                })
                .collect();
            let mut snapshots: Vec<u64> = Vec::new();
            let mut next_ts = 1;
            for _ in 0..300 {
                match rng.gen_range(0..5) {
                    0 => {
                        snapshots.push(next_ts);
                        next_ts += 1;
                    }
                    1 if !snapshots.is_empty() => {
                        snapshots.swap_remove(rng.gen_range(0..snapshots.len()));
                    }
                    2 => {
                        let oldest = snapshots.iter().copied().min().unwrap_or(next_ts);
                        let before = table.version_count() + table.tracked_write_count();
                        table.prune_versions(rng.gen_range(0..=oldest));
                        pruned += before - table.version_count() - table.tracked_write_count();
                    }
                    _ => {
                        // One commit inserts, rewrites or deletes one key.
                        let (k, ts) = (rng.gen_range(0..KEYS), next_ts);
                        next_ts += 1;
                        let live = (model.iter_mut()).find(|v| v.key == k && v.end == u64::MAX);
                        let old = live.map(|v| {
                            v.end = ts;
                            v.row.clone()
                        });
                        if old.is_none() || rng.gen_bool(0.7) {
                            model.push(Version {
                                key: k,
                                start: ts,
                                end: u64::MAX,
                                row: row(k, ts),
                            });
                        }
                        table.record_version(key(k), old, ts);
                    }
                }
                for &s in &snapshots {
                    let overlay = snapshot_overlay(&table, s);
                    // A key written after `s` began or ended a version since.
                    let removed: HashSet<Key> = (model.iter())
                        .filter(|v| v.start > s || (v.end > s && v.end != u64::MAX))
                        .map(|v| key(v.key))
                        .collect();
                    let mut added: Vec<Row> = (model.iter())
                        .filter(|v| removed.contains(&key(v.key)) && v.start <= s && s < v.end)
                        .map(|v| v.row.clone())
                        .collect();
                    let mut got = overlay.added.clone();
                    got.sort();
                    added.sort();
                    assert_eq!(overlay.removed, removed, "seed {seed}, snapshot {s}");
                    assert_eq!(got, added, "seed {seed}, snapshot {s}");
                    checked += 1;
                }
            }
        }
        assert!(
            checked > 10_000 && pruned > 100,
            "{checked} checks, {pruned} pruned"
        );
    }
}
