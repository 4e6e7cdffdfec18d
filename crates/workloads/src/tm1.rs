//! TM1 — Nokia's Network Database Benchmark (also known as TATP).
//!
//! Seven extremely short transactions over four tables, modelling the home
//! location register of a mobile network. Three transactions are read-only,
//! four update; several fail on a sizable fraction of their inputs (the paper
//! notes ~25% of TM1 transactions abort due to invalid input, which is what
//! makes the UpdateSubscriberData experiment of Figure 11 interesting).
//!
//! All four tables route on the subscriber id, so in DORA every transaction's
//! actions carry the subscriber id as their identifier and each executor owns
//! a contiguous range of subscribers. Every transaction type is defined
//! exactly once as a [`TxnProgram`] plan, built on first use and cached;
//! drawing a transaction binds its inputs to the plan, and the engines run
//! it on their architecture.

use std::sync::OnceLock;

use rand::rngs::SmallRng;

use dora_common::prelude::*;
use dora_core::{DoraEngine, OnDuplicate, OnMissing, Param, Params, Shape, Step, TxnProgram};

use dora_storage::{ColumnDef, Database, IndexSpec, TableSchema};

use crate::spec::{uniform, Workload};

/// Which part of the TM1 mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tm1Mix {
    /// The full seven-transaction TATP mix.
    Full,
    /// Only GetSubscriberData — the workload of Figure 1.
    GetSubscriberDataOnly,
    /// Only UpdateSubscriberData — the workload of Figure 11.
    UpdateSubscriberDataOnly,
}

/// Cached table/index ids.
#[derive(Debug, Clone, Copy)]
struct Tm1Tables {
    subscriber: TableId,
    access_info: TableId,
    special_facility: TableId,
    call_forwarding: TableId,
    subscriber_by_nbr: IndexId,
}

/// The TM1 workload.
#[derive(Debug)]
pub struct Tm1 {
    subscribers: i64,
    mix: Tm1Mix,
    /// When `true`, UpdateSubscriberData uses the serialized flow graph
    /// (DORA-S); otherwise the parallel one (DORA-P). See Figure 11.
    serial_update_plan: bool,
    tables: OnceLock<Tm1Tables>,
    /// One plan per [`Tm1Plan`], built on first use.
    plans: [OnceLock<TxnProgram>; TM1_PLANS],
}

impl Tm1 {
    /// Label for GetSubscriberData.
    pub const GET_SUBSCRIBER_DATA: &'static str = "tm1-get-subscriber-data";
    /// Label for GetNewDestination.
    pub const GET_NEW_DESTINATION: &'static str = "tm1-get-new-destination";
    /// Label for GetAccessData.
    pub const GET_ACCESS_DATA: &'static str = "tm1-get-access-data";
    /// Label for UpdateSubscriberData.
    pub const UPDATE_SUBSCRIBER_DATA: &'static str = "tm1-update-subscriber-data";
    /// Label for UpdateLocation.
    pub const UPDATE_LOCATION: &'static str = "tm1-update-location";
    /// Label for InsertCallForwarding.
    pub const INSERT_CALL_FORWARDING: &'static str = "tm1-insert-call-forwarding";
    /// Label for DeleteCallForwarding.
    pub const DELETE_CALL_FORWARDING: &'static str = "tm1-delete-call-forwarding";

    /// All seven transaction-type labels, in mix order.
    pub const ALL_LABELS: [&'static str; 7] = [
        Self::GET_SUBSCRIBER_DATA,
        Self::GET_NEW_DESTINATION,
        Self::GET_ACCESS_DATA,
        Self::UPDATE_SUBSCRIBER_DATA,
        Self::UPDATE_LOCATION,
        Self::INSERT_CALL_FORWARDING,
        Self::DELETE_CALL_FORWARDING,
    ];

    /// Creates a TM1 workload with `subscribers` subscribers and the full mix.
    pub fn new(subscribers: i64) -> Self {
        Self {
            subscribers: subscribers.max(1),
            mix: Tm1Mix::Full,
            serial_update_plan: false,
            tables: OnceLock::new(),
            plans: Default::default(),
        }
    }

    /// Restricts the mix.
    pub fn with_mix(mut self, mix: Tm1Mix) -> Self {
        self.mix = mix;
        self
    }

    /// Selects the serialized UpdateSubscriberData plan (DORA-S).
    pub fn with_serial_update_plan(mut self, serial: bool) -> Self {
        self.serial_update_plan = serial;
        self
    }

    /// Number of subscribers loaded.
    pub fn subscribers(&self) -> i64 {
        self.subscribers
    }

    fn tables(&self, db: &Database) -> DbResult<Tm1Tables> {
        if let Some(tables) = self.tables.get() {
            return Ok(*tables);
        }
        let tables = Tm1Tables {
            subscriber: db.table_id("subscriber")?,
            access_info: db.table_id("access_info")?,
            special_facility: db.table_id("special_facility")?,
            call_forwarding: db.table_id("call_forwarding")?,
            subscriber_by_nbr: db.index_id("subscriber_by_nbr")?,
        };
        let _ = self.tables.set(tables);
        Ok(tables)
    }

    fn sub_nbr(s_id: i64) -> String {
        format!("{s_id:015}")
    }

    fn random_subscriber(&self, rng: &mut SmallRng) -> i64 {
        uniform(rng, 1, self.subscribers)
    }

    // ----- transaction programs (one plan per transaction type) -------------

    /// The cached plan of `plan`, built on first use, bound to `inputs`.
    fn bound(&self, db: &Database, plan: Tm1Plan, inputs: Tm1Inputs) -> DbResult<TxnProgram> {
        let cell = &self.plans[plan as usize];
        if let Some(plan) = cell.get() {
            return Ok(plan.bind(inputs.params()));
        }
        let built = self.build_plan(db, plan)?;
        Ok(cell.get_or_init(|| built).bind(inputs.params()))
    }

    /// Builds the plan of one transaction type. Every TM1 plan reads the
    /// same parameter slots ([`Tm1Inputs`]) and routes on the subscriber id.
    /// Each step declares the columns its body reads and writes, and its
    /// abort rate: the TATP invalid-input probabilities the loader induces.
    fn build_plan(&self, db: &Database, plan: Tm1Plan) -> DbResult<TxnProgram> {
        let tables = self.tables(db)?;
        let facility = || Shape::of([S_ID, SF_TYPE]);
        let forwarding = || Shape::of([S_ID, SF_TYPE, START_TIME]);
        Ok(match plan {
            // A single read-only step on the Subscriber table.
            Tm1Plan::GetSubscriberData => TxnProgram::new(Self::GET_SUBSCRIBER_DATA).step(
                Step::read(
                    "get-subscriber",
                    tables.subscriber,
                    S_ID,
                    S_ID,
                    OnMissing::Abort("subscriber missing"),
                    |_ctx, _row| Ok(()),
                )
                .reads([]),
            ),
            // Probe the SpecialFacility, then (next phase, because of the
            // control dependency) the CallForwarding record.
            Tm1Plan::GetNewDestination => TxnProgram::new(Self::GET_NEW_DESTINATION)
                .step(
                    Step::read(
                        "probe-facility",
                        tables.special_facility,
                        S_ID,
                        facility(),
                        OnMissing::Abort("facility inactive"),
                        |ctx, row| {
                            if row[2].as_int()? == 1 {
                                Ok(())
                            } else {
                                Err(ctx.abort("facility inactive"))
                            }
                        },
                    )
                    .reads([2])
                    .abort_rate(0.44),
                )
                .rvp()
                .step(
                    Step::read(
                        "probe-forwarding",
                        tables.call_forwarding,
                        S_ID,
                        forwarding(),
                        OnMissing::Abort("no forwarding"),
                        |_ctx, _row| Ok(()),
                    )
                    .reads([])
                    .abort_rate(0.5),
                ),
            // One read-only step on AccessInfo.
            Tm1Plan::GetAccessData => TxnProgram::new(Self::GET_ACCESS_DATA).step(
                Step::read(
                    "get-access-data",
                    tables.access_info,
                    S_ID,
                    Shape::of([S_ID, AI_TYPE]),
                    OnMissing::Abort("no access info"),
                    |_ctx, _row| Ok(()),
                )
                .reads([])
                .abort_rate(0.375),
            ),
            Tm1Plan::UpdateSubscriberData | Tm1Plan::UpdateSubscriberDataSerial => {
                let subscriber_step = Step::update(
                    "update-subscriber",
                    tables.subscriber,
                    S_ID,
                    S_ID,
                    OnMissing::Error,
                    |ctx, row| {
                        row[2] = Value::Int(ctx.int(BIT)?);
                        Ok(())
                    },
                )
                .writes([2]);
                let facility_step = Step::update(
                    "update-facility",
                    tables.special_facility,
                    S_ID,
                    facility(),
                    OnMissing::Abort("no such facility"),
                    |ctx, row| {
                        row[4] = Value::Int(ctx.int(DATA_A)?);
                        Ok(())
                    },
                )
                .writes([4])
                .abort_rate(0.625);
                // The failure-prone step goes first under the serial plan so
                // the transaction fails before any other work is wasted.
                let serial = plan == Tm1Plan::UpdateSubscriberDataSerial;
                let (first, second) = if serial {
                    (facility_step, subscriber_step)
                } else {
                    (subscriber_step, facility_step)
                };
                TxnProgram::new(Self::UPDATE_SUBSCRIBER_DATA)
                    .step(first)
                    .step(second)
                    .serialized(serial)
            }
            // A secondary step resolves the subscriber through the `sub_nbr`
            // secondary index (whose leaves carry the routing fields), then
            // the routed step updates the record through its RID.
            Tm1Plan::UpdateLocation => TxnProgram::new(Self::UPDATE_LOCATION)
                .secondary("resolve-sub-nbr", tables.subscriber, move |ctx| {
                    let s_id = ctx.int(S_ID)?;
                    let hits = ctx.db.probe_secondary(
                        ctx.txn,
                        tables.subscriber_by_nbr,
                        &Key::from_values([Self::sub_nbr(s_id)]),
                        ctx.cc(),
                    )?;
                    let Some(entry) = hits.first() else {
                        return Err(ctx.abort("unknown sub_nbr"));
                    };
                    // Stash the routing field and RID for the next phase.
                    ctx.scratch
                        .put("s_id", entry.routing.leading_int().unwrap_or(s_id));
                    ctx.scratch.put("rid", entry.rid.pack() as i64);
                    Ok(())
                })
                .rvp()
                .step(
                    Step::custom(
                        "update-location",
                        tables.subscriber,
                        S_ID,
                        dora_core::LocalMode::Exclusive,
                        move |ctx| {
                            let rid = Rid::unpack(ctx.scratch.get_int("rid")? as u64);
                            let location = ctx.int(LOCATION)?;
                            ctx.db
                                .update_rid(ctx.txn, tables.subscriber, rid, ctx.cc(), |row| {
                                    row[4] = Value::Int(location);
                                    Ok(())
                                })
                        },
                    )
                    .writes([4]),
                ),
            // Probe the facility, then insert the forwarding record. Under
            // DORA the insert still takes a row-level lock through the
            // centralized lock manager, as Section 4.2.1 requires.
            Tm1Plan::InsertCallForwarding => TxnProgram::new(Self::INSERT_CALL_FORWARDING)
                .step(
                    Step::read(
                        "probe-facility",
                        tables.special_facility,
                        S_ID,
                        facility(),
                        OnMissing::Abort("no such facility"),
                        |_ctx, _row| Ok(()),
                    )
                    .reads([])
                    .abort_rate(0.375),
                )
                .rvp()
                .step(
                    Step::insert(
                        "insert-forwarding",
                        tables.call_forwarding,
                        S_ID,
                        OnDuplicate::Abort("forwarding exists"),
                        |ctx| {
                            let s_id = ctx.int(S_ID)?;
                            Ok(vec![
                                Value::Int(s_id),
                                Value::Int(ctx.int(SF_TYPE)?),
                                Value::Int(ctx.int(START_TIME)?),
                                Value::Int(ctx.int(END_TIME)?),
                                Value::Text(Self::sub_nbr(s_id + 1)),
                            ])
                        },
                    )
                    .full_key(forwarding())
                    .abort_rate(0.3),
                ),
            // A single exclusive step (the delete takes a centralized row
            // lock inside the storage manager on either engine).
            Tm1Plan::DeleteCallForwarding => TxnProgram::new(Self::DELETE_CALL_FORWARDING).step(
                Step::delete(
                    "delete-forwarding",
                    tables.call_forwarding,
                    S_ID,
                    forwarding(),
                    OnMissing::Abort("no forwarding to delete"),
                )
                .abort_rate(0.7),
            ),
        })
    }

    /// GetSubscriberData: a single read-only step on the Subscriber table.
    pub fn get_subscriber_data_program(&self, db: &Database, s_id: i64) -> DbResult<TxnProgram> {
        let inputs = Tm1Inputs {
            s_id,
            ..Tm1Inputs::default()
        };
        self.bound(db, Tm1Plan::GetSubscriberData, inputs)
    }

    /// UpdateSubscriberData.
    ///
    /// One definition, two plans: the parallel plan (DORA-P) runs the
    /// Subscriber update and the SpecialFacility update in the same phase;
    /// the serial plan (DORA-S, Appendix A.4) orders the SpecialFacility
    /// update — which fails for 62.5% of inputs — first and serializes the
    /// graph, exactly the two plans Figure 11 compares.
    pub fn update_subscriber_data_program(
        &self,
        db: &Database,
        s_id: i64,
        sf_type: i64,
        bit: i64,
        data_a: i64,
        serial: bool,
    ) -> DbResult<TxnProgram> {
        let inputs = Tm1Inputs {
            s_id,
            sf_type,
            bit,
            data_a,
            ..Tm1Inputs::default()
        };
        let plan = if serial {
            Tm1Plan::UpdateSubscriberDataSerial
        } else {
            Tm1Plan::UpdateSubscriberData
        };
        self.bound(db, plan, inputs)
    }

    /// UpdateLocation: a secondary step resolves the subscriber through the
    /// `sub_nbr` secondary index (whose leaves carry the routing fields),
    /// then the routed step updates the record through its RID.
    pub fn update_location_program(
        &self,
        db: &Database,
        s_id: i64,
        location: i64,
    ) -> DbResult<TxnProgram> {
        let inputs = Tm1Inputs {
            s_id,
            location,
            ..Tm1Inputs::default()
        };
        self.bound(db, Tm1Plan::UpdateLocation, inputs)
    }

    /// InsertCallForwarding: probe the facility, then insert the forwarding
    /// record. Under DORA the insert still takes a row-level lock through the
    /// centralized lock manager, as Section 4.2.1 requires.
    pub fn insert_call_forwarding_program(
        &self,
        db: &Database,
        s_id: i64,
        sf_type: i64,
        start_time: i64,
        end_time: i64,
    ) -> DbResult<TxnProgram> {
        let inputs = Tm1Inputs {
            s_id,
            sf_type,
            start_time,
            end_time,
            ..Tm1Inputs::default()
        };
        self.bound(db, Tm1Plan::InsertCallForwarding, inputs)
    }

    /// DeleteCallForwarding: a single exclusive step (the delete takes a
    /// centralized row lock inside the storage manager on either engine).
    pub fn delete_call_forwarding_program(
        &self,
        db: &Database,
        s_id: i64,
        sf_type: i64,
        start_time: i64,
    ) -> DbResult<TxnProgram> {
        let inputs = Tm1Inputs {
            s_id,
            sf_type,
            start_time,
            ..Tm1Inputs::default()
        };
        self.bound(db, Tm1Plan::DeleteCallForwarding, inputs)
    }

    /// Picks a transaction type according to the TATP mix (percentages are
    /// the standard ones).
    fn pick(&self, rng: &mut SmallRng) -> Tm1Txn {
        match self.mix {
            Tm1Mix::GetSubscriberDataOnly => return Tm1Txn::GetSubscriberData,
            Tm1Mix::UpdateSubscriberDataOnly => return Tm1Txn::UpdateSubscriberData,
            Tm1Mix::Full => {}
        }
        let roll = uniform(rng, 0, 99);
        match roll {
            0..=34 => Tm1Txn::GetSubscriberData,
            35..=44 => Tm1Txn::GetNewDestination,
            45..=79 => Tm1Txn::GetAccessData,
            80..=81 => Tm1Txn::UpdateSubscriberData,
            82..=95 => Tm1Txn::UpdateLocation,
            96..=97 => Tm1Txn::InsertCallForwarding,
            _ => Tm1Txn::DeleteCallForwarding,
        }
    }
}

/// The plans a TM1 workload caches: one per transaction type, and both
/// UpdateSubscriberData plans of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tm1Plan {
    GetSubscriberData,
    GetNewDestination,
    GetAccessData,
    UpdateSubscriberData,
    UpdateSubscriberDataSerial,
    UpdateLocation,
    InsertCallForwarding,
    DeleteCallForwarding,
}

const TM1_PLANS: usize = 8;

/// The parameter slots every TM1 plan reads; the names are the key atoms of
/// the derived conflict templates.
const S_ID: Param = Param::new(0, "s_id");
const SF_TYPE: Param = Param::new(1, "sf_type");
const AI_TYPE: Param = Param::new(2, "ai_type");
const START_TIME: Param = Param::new(3, "start_time");
const BIT: Param = Param::new(4, "bit");
const DATA_A: Param = Param::new(5, "data_a");
const LOCATION: Param = Param::new(6, "location");
const END_TIME: Param = Param::new(7, "end_time");

/// One TM1 transaction's inputs, all drawn for every transaction type.
#[derive(Debug, Clone, Copy, Default)]
struct Tm1Inputs {
    s_id: i64,
    sf_type: i64,
    ai_type: i64,
    start_time: i64,
    bit: i64,
    data_a: i64,
    location: i64,
    end_time: i64,
}

impl Tm1Inputs {
    /// The inputs in slot order (the `Param` constants above).
    fn params(self) -> Params {
        Params::of([
            self.s_id,
            self.sf_type,
            self.ai_type,
            self.start_time,
            self.bit,
            self.data_a,
            self.location,
            self.end_time,
        ])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tm1Txn {
    GetSubscriberData,
    GetNewDestination,
    GetAccessData,
    UpdateSubscriberData,
    UpdateLocation,
    InsertCallForwarding,
    DeleteCallForwarding,
}

impl Workload for Tm1 {
    fn name(&self) -> &'static str {
        match self.mix {
            Tm1Mix::Full => "TM1",
            Tm1Mix::GetSubscriberDataOnly => "TM1-GetSubscriberData",
            Tm1Mix::UpdateSubscriberDataOnly => "TM1-UpdateSubscriberData",
        }
    }

    fn create_schema(&self, db: &Database) -> DbResult<()> {
        db.create_table(TableSchema::new(
            "subscriber",
            vec![
                ColumnDef::new("s_id", ValueType::Int),
                ColumnDef::new("sub_nbr", ValueType::Text),
                ColumnDef::new("bit_1", ValueType::Int),
                ColumnDef::new("msc_location", ValueType::Int),
                ColumnDef::new("vlr_location", ValueType::Int),
            ],
            vec![0],
        ))?;
        db.create_table(TableSchema::new(
            "access_info",
            vec![
                ColumnDef::new("s_id", ValueType::Int),
                ColumnDef::new("ai_type", ValueType::Int),
                ColumnDef::new("data1", ValueType::Int),
                ColumnDef::new("data2", ValueType::Int),
                ColumnDef::new("data3", ValueType::Text),
            ],
            vec![0, 1],
        ))?;
        db.create_table(TableSchema::new(
            "special_facility",
            vec![
                ColumnDef::new("s_id", ValueType::Int),
                ColumnDef::new("sf_type", ValueType::Int),
                ColumnDef::new("is_active", ValueType::Int),
                ColumnDef::new("error_cntrl", ValueType::Int),
                ColumnDef::new("data_a", ValueType::Int),
            ],
            vec![0, 1],
        ))?;
        db.create_table(TableSchema::new(
            "call_forwarding",
            vec![
                ColumnDef::new("s_id", ValueType::Int),
                ColumnDef::new("sf_type", ValueType::Int),
                ColumnDef::new("start_time", ValueType::Int),
                ColumnDef::new("end_time", ValueType::Int),
                ColumnDef::new("numberx", ValueType::Text),
            ],
            vec![0, 1, 2],
        ))?;
        let subscriber = db.table_id("subscriber")?;
        db.create_index(IndexSpec {
            name: "subscriber_by_nbr".into(),
            table: subscriber,
            key_columns: vec![1],
            unique: true,
        })?;
        Ok(())
    }

    fn load(&self, db: &Database) -> DbResult<()> {
        let tables = self.tables(db)?;
        for s_id in 1..=self.subscribers {
            db.load_row(
                tables.subscriber,
                vec![
                    Value::Int(s_id),
                    Value::Text(Self::sub_nbr(s_id)),
                    Value::Int(0),
                    Value::Int((s_id * 13) % 1_000_000),
                    Value::Int((s_id * 17) % 1_000_000),
                ],
            )?;
            // 1..=4 access-info rows (deterministic per subscriber).
            let ai_count = (s_id % 4) + 1;
            for ai_type in 1..=ai_count {
                db.load_row(
                    tables.access_info,
                    vec![
                        Value::Int(s_id),
                        Value::Int(ai_type),
                        Value::Int((s_id + ai_type) % 256),
                        Value::Int((s_id * ai_type) % 256),
                        Value::Text("AAA".into()),
                    ],
                )?;
            }
            // 1..=4 special-facility rows; ~85% are active.
            let sf_count = ((s_id + 1) % 4) + 1;
            for sf_type in 1..=sf_count {
                let active = (s_id * 7 + sf_type * 3) % 100 < 85;
                db.load_row(
                    tables.special_facility,
                    vec![
                        Value::Int(s_id),
                        Value::Int(sf_type),
                        Value::Int(if active { 1 } else { 0 }),
                        Value::Int(0),
                        Value::Int((s_id + sf_type) % 256),
                    ],
                )?;
                // 0..=3 call-forwarding rows at start times 0/8/16.
                let cf_count = (s_id + sf_type) % 4;
                for cf in 0..cf_count {
                    db.load_row(
                        tables.call_forwarding,
                        vec![
                            Value::Int(s_id),
                            Value::Int(sf_type),
                            Value::Int(cf * 8),
                            Value::Int(cf * 8 + 8),
                            Value::Text(Self::sub_nbr(s_id + 1)),
                        ],
                    )?;
                }
            }
        }
        Ok(())
    }

    fn bind_dora(&self, engine: &DoraEngine, executors_per_table: usize) -> DbResult<()> {
        let tables = self.tables(engine.db())?;
        for table in [
            tables.subscriber,
            tables.access_info,
            tables.special_facility,
            tables.call_forwarding,
        ] {
            engine.bind_table(table, executors_per_table, 1, self.subscribers)?;
        }
        Ok(())
    }

    fn txn_labels(&self) -> &'static [&'static str] {
        match self.mix {
            Tm1Mix::Full => &Self::ALL_LABELS,
            Tm1Mix::GetSubscriberDataOnly => &[Self::GET_SUBSCRIBER_DATA],
            Tm1Mix::UpdateSubscriberDataOnly => &[Self::UPDATE_SUBSCRIBER_DATA],
        }
    }

    fn next_program(&self, db: &Database, rng: &mut SmallRng) -> DbResult<TxnProgram> {
        let txn_type = self.pick(rng);
        let s_id = self.random_subscriber(rng);
        let sf_type = uniform(rng, 1, 4);
        let ai_type = uniform(rng, 1, 4);
        let start_time = uniform(rng, 0, 2) * 8;
        let bit = uniform(rng, 0, 1);
        let data_a = uniform(rng, 0, 255);
        let location = uniform(rng, 0, 1_000_000);
        let end_time = start_time + uniform(rng, 1, 8);
        let inputs = Tm1Inputs {
            s_id,
            sf_type,
            ai_type,
            start_time,
            bit,
            data_a,
            location,
            end_time,
        };
        let plan = match txn_type {
            Tm1Txn::GetSubscriberData => Tm1Plan::GetSubscriberData,
            Tm1Txn::GetNewDestination => Tm1Plan::GetNewDestination,
            Tm1Txn::GetAccessData => Tm1Plan::GetAccessData,
            Tm1Txn::UpdateSubscriberData if self.serial_update_plan => {
                Tm1Plan::UpdateSubscriberDataSerial
            }
            Tm1Txn::UpdateSubscriberData => Tm1Plan::UpdateSubscriberData,
            Tm1Txn::UpdateLocation => Tm1Plan::UpdateLocation,
            Tm1Txn::InsertCallForwarding => Tm1Plan::InsertCallForwarding,
            Tm1Txn::DeleteCallForwarding => Tm1Plan::DeleteCallForwarding,
        };
        self.bound(db, plan, inputs)
    }

    fn plans(&self, db: &Database) -> DbResult<Vec<TxnProgram>> {
        let update = if self.serial_update_plan {
            Tm1Plan::UpdateSubscriberDataSerial
        } else {
            Tm1Plan::UpdateSubscriberData
        };
        let mut plans = Vec::new();
        for plan in [
            Tm1Plan::GetSubscriberData,
            Tm1Plan::GetNewDestination,
            Tm1Plan::GetAccessData,
            update,
            Tm1Plan::UpdateLocation,
            Tm1Plan::InsertCallForwarding,
            Tm1Plan::DeleteCallForwarding,
        ] {
            let program = self.bound(db, plan, Tm1Inputs::default())?;
            if self.txn_labels().contains(&program.name()) {
                plans.push(program);
            }
        }
        Ok(plans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_baseline_mix, run_baseline_once, run_dora_mix};
    use dora_core::DoraConfig;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small_tm1() -> (Arc<Database>, Tm1) {
        let db = Database::for_tests();
        let workload = Tm1::new(200);
        workload.setup(&db).unwrap();
        (db, workload)
    }

    #[test]
    fn schema_and_load_populate_all_tables() {
        let (db, workload) = small_tm1();
        let tables = workload.tables(&db).unwrap();
        assert_eq!(db.row_count(tables.subscriber).unwrap(), 200);
        assert!(db.row_count(tables.access_info).unwrap() >= 200);
        assert!(db.row_count(tables.special_facility).unwrap() >= 200);
        assert!(db.row_count(tables.call_forwarding).unwrap() > 0);
    }

    #[test]
    fn baseline_mix_commits_and_aborts() {
        let (db, workload) = small_tm1();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut committed = 0;
        let mut aborted = 0;
        for _ in 0..300 {
            match run_baseline_mix(&workload, &db, &mut rng) {
                TxnOutcome::Committed => committed += 1,
                _ => aborted += 1,
            }
        }
        assert!(
            committed > 150,
            "most transactions should commit ({committed})"
        );
        assert!(aborted > 0, "TM1 has a sizable invalid-input abort rate");
    }

    #[test]
    fn dora_mix_commits_and_aborts() {
        let (db, workload) = small_tm1();
        let engine = DoraEngine::new(db, DoraConfig::for_tests());
        workload.bind_dora(&engine, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut committed = 0;
        let mut aborted = 0;
        for _ in 0..300 {
            match run_dora_mix(&workload, &engine, &mut rng) {
                TxnOutcome::Committed => committed += 1,
                _ => aborted += 1,
            }
        }
        assert!(
            committed > 150,
            "most transactions should commit ({committed})"
        );
        assert!(aborted > 0);
        engine.shutdown();
    }

    #[test]
    fn baseline_and_dora_agree_on_final_state() {
        // Run the same deterministic sequence of UpdateLocation transactions
        // through both compilations of the same program (on separate
        // databases) and compare subscriber locations afterwards.
        let db_base = Database::for_tests();
        let db_dora = Database::for_tests();
        let workload_base = Tm1::new(50);
        let workload_dora = Tm1::new(50);
        workload_base.setup(&db_base).unwrap();
        workload_dora.setup(&db_dora).unwrap();
        let dora = DoraEngine::new(Arc::clone(&db_dora), DoraConfig::for_tests());
        workload_dora.bind_dora(&dora, 2).unwrap();

        for s_id in 1..=50i64 {
            let location = s_id * 1000;
            let program = workload_base
                .update_location_program(&db_base, s_id, location)
                .unwrap();
            assert_eq!(
                run_baseline_once(&db_base, program).unwrap(),
                TxnOutcome::Committed
            );
            let program = workload_dora
                .update_location_program(&db_dora, s_id, location)
                .unwrap();
            dora.execute(program.compile_dora()).unwrap();
        }

        let tables_base = workload_base.tables(&db_base).unwrap();
        let tables_dora = workload_dora.tables(&db_dora).unwrap();
        let check_base = db_base.begin();
        let check_dora = db_dora.begin();
        for s_id in 1..=50i64 {
            let (_, row_base) = db_base
                .probe_primary(
                    &check_base,
                    tables_base.subscriber,
                    &Key::int(s_id),
                    false,
                    CcMode::Full,
                )
                .unwrap()
                .unwrap();
            let (_, row_dora) = db_dora
                .probe_primary(
                    &check_dora,
                    tables_dora.subscriber,
                    &Key::int(s_id),
                    false,
                    CcMode::Full,
                )
                .unwrap()
                .unwrap();
            assert_eq!(
                row_base[4], row_dora[4],
                "vlr_location must match for subscriber {s_id}"
            );
            assert_eq!(row_base[4], Value::Int(s_id * 1000));
        }
        db_base.commit(&check_base).unwrap();
        db_dora.commit(&check_dora).unwrap();
        dora.shutdown();
    }

    #[test]
    fn update_subscriber_data_plans_agree_on_effects() {
        let (db, workload) = small_tm1();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        workload.bind_dora(&engine, 2).unwrap();
        // Subscriber 3 has sf_types 1..=((3+1)%4)+1 = 1..=1, so sf_type 1
        // exists (parallel plan commits) and sf_type 4 does not (any plan
        // aborts and leaves no partial update).
        let program = workload
            .update_subscriber_data_program(&db, 3, 1, 1, 42, false)
            .unwrap();
        engine.execute(program.compile_dora()).unwrap();
        let program = workload
            .update_subscriber_data_program(&db, 3, 4, 0, 99, true)
            .unwrap();
        assert!(engine.execute(program.compile_dora()).is_err());

        let tables = workload.tables(&db).unwrap();
        let check = db.begin();
        let (_, sub) = db
            .probe_primary(&check, tables.subscriber, &Key::int(3), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(
            sub[2],
            Value::Int(1),
            "committed plan applied, aborted plan rolled back"
        );
        let (_, sf) = db
            .probe_primary(
                &check,
                tables.special_facility,
                &Key::int2(3, 1),
                false,
                CcMode::Full,
            )
            .unwrap()
            .unwrap();
        assert_eq!(sf[4], Value::Int(42));
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn serial_plan_orders_the_failure_prone_step_first() {
        let (db, workload) = small_tm1();
        let parallel = workload
            .update_subscriber_data_program(&db, 3, 1, 1, 42, false)
            .unwrap()
            .compile_dora();
        assert_eq!(parallel.phase_count(), 1);
        assert_eq!(parallel.actions_in(0), 2);
        let serial = workload
            .update_subscriber_data_program(&db, 3, 1, 1, 42, true)
            .unwrap()
            .compile_dora();
        assert_eq!(serial.phase_count(), 2, "DORA-S: one action per phase");
        assert!(
            serial.describe()[0][0].starts_with("update-facility"),
            "the 62.5%-failure step must run first under DORA-S: {:?}",
            serial.describe()
        );
    }

    #[test]
    fn insert_and_delete_call_forwarding_roundtrip_via_dora() {
        let (db, workload) = small_tm1();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        workload.bind_dora(&engine, 2).unwrap();
        let tables = workload.tables(&db).unwrap();
        // Subscriber 10 has sf_type 1; use an unusual start time to avoid
        // colliding with loaded rows.
        let program = workload
            .insert_call_forwarding_program(&db, 10, 1, 99, 120)
            .unwrap();
        engine.execute(program.compile_dora()).unwrap();
        let check = db.begin();
        assert!(db
            .probe_primary(
                &check,
                tables.call_forwarding,
                &Key::int3(10, 1, 99),
                false,
                CcMode::Full
            )
            .unwrap()
            .is_some());
        db.commit(&check).unwrap();
        // Duplicate insert aborts.
        let program = workload
            .insert_call_forwarding_program(&db, 10, 1, 99, 120)
            .unwrap();
        assert!(engine.execute(program.compile_dora()).is_err());
        // Delete removes it; a second delete aborts.
        let program = workload
            .delete_call_forwarding_program(&db, 10, 1, 99)
            .unwrap();
        engine.execute(program.compile_dora()).unwrap();
        let program = workload
            .delete_call_forwarding_program(&db, 10, 1, 99)
            .unwrap();
        assert!(engine.execute(program.compile_dora()).is_err());
        engine.shutdown();
    }

    #[test]
    fn mix_restriction_only_runs_selected_transaction() {
        let mut rng = SmallRng::seed_from_u64(3);
        let workload = Tm1::new(10).with_mix(Tm1Mix::GetSubscriberDataOnly);
        for _ in 0..50 {
            assert_eq!(workload.pick(&mut rng), Tm1Txn::GetSubscriberData);
        }
        assert_eq!(workload.txn_labels(), &[Tm1::GET_SUBSCRIBER_DATA]);
        let workload = Tm1::new(10).with_mix(Tm1Mix::UpdateSubscriberDataOnly);
        for _ in 0..50 {
            assert_eq!(workload.pick(&mut rng), Tm1Txn::UpdateSubscriberData);
        }
        assert_eq!(Tm1::new(10).txn_labels().len(), 7);
    }
}
