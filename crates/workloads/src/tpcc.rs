//! TPC-C: the order-entry benchmark.
//!
//! Five transactions over nine tables, each defined exactly once as a
//! [`TxnProgram`]. The paper's evaluation uses Payment (the running example
//! of Figure 4 and the access-pattern trace of Figure 10), OrderStatus
//! (Figures 2b, 5, 6 and 8) and NewOrder (the intra-transaction-parallelism
//! result of Figure 7); Delivery and StockLevel complete the mix.
//!
//! Every table except Item routes on the warehouse id. Item is a read-only
//! catalog table routed on the item id. The Customer secondary index on
//! (warehouse, district, last name) contains the routing field, so — as the
//! paper discusses in Section 4.1.2 — customer-by-last-name accesses are
//! still routable and need not become secondary actions.

use std::sync::OnceLock;

use rand::rngs::SmallRng;

use dora_common::prelude::*;
use dora_core::{
    DoraEngine, LocalMode, OnDuplicate, OnMissing, Param, Params, Shape, Step, StepCtx, TxnProgram,
};

use dora_storage::{ColumnDef, Database, IndexSpec, TableSchema};

use crate::spec::{c_last, chance, nurand, uniform, Workload};

/// Districts per warehouse (fixed by the specification).
pub(crate) const DISTRICTS_PER_WAREHOUSE: i64 = 10;

/// Which part of the TPC-C mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccMix {
    /// The standard five-transaction mix.
    Full,
    /// Only Payment transactions (Figures 4, 9 and 10).
    PaymentOnly,
    /// Only OrderStatus transactions (Figures 2b, 5, 6, 8).
    OrderStatusOnly,
    /// Only NewOrder transactions (Figure 7).
    NewOrderOnly,
}

#[derive(Debug, Clone, Copy)]
struct TpccTables {
    warehouse: TableId,
    district: TableId,
    customer: TableId,
    history: TableId,
    new_order: TableId,
    orders: TableId,
    order_line: TableId,
    item: TableId,
    stock: TableId,
    customer_by_name: IndexId,
    orders_by_customer: IndexId,
}

/// The TPC-C workload.
#[derive(Debug)]
pub struct Tpcc {
    warehouses: i64,
    customers_per_district: i64,
    items: i64,
    mix: TpccMix,
    tables: OnceLock<TpccTables>,
    /// One plan per [`TpccPlan`] slot, built on first use.
    plans: [OnceLock<TxnProgram>; TPCC_PLANS],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TpccTxn {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

impl Tpcc {
    /// Label for the Payment transaction.
    pub const PAYMENT: &'static str = "tpcc-payment";
    /// Label for the OrderStatus transaction.
    pub const ORDER_STATUS: &'static str = "tpcc-order-status";
    /// Label for the NewOrder transaction.
    pub const NEW_ORDER: &'static str = "tpcc-new-order";
    /// Label for the Delivery transaction.
    pub const DELIVERY: &'static str = "tpcc-delivery";
    /// Label for the StockLevel transaction.
    pub const STOCK_LEVEL: &'static str = "tpcc-stock-level";

    /// All five transaction-type labels.
    pub const ALL_LABELS: [&'static str; 5] = [
        Self::NEW_ORDER,
        Self::PAYMENT,
        Self::ORDER_STATUS,
        Self::DELIVERY,
        Self::STOCK_LEVEL,
    ];

    /// Creates a TPC-C workload with full-size districts (3 000 customers)
    /// and a 10 000-item catalog.
    pub fn new(warehouses: i64) -> Self {
        Self::with_scale(warehouses, 3_000, 10_000)
    }

    /// Creates a TPC-C workload with reduced per-district and item scales
    /// (used by tests and quick benchmark runs; contention behaviour is
    /// governed by the warehouse count, not by these).
    pub fn with_scale(warehouses: i64, customers_per_district: i64, items: i64) -> Self {
        Self {
            warehouses: warehouses.max(1),
            customers_per_district: customers_per_district.max(1),
            items: items.max(1),
            mix: TpccMix::Full,
            tables: OnceLock::new(),
            plans: Default::default(),
        }
    }

    /// Restricts the mix.
    pub fn with_mix(mut self, mix: TpccMix) -> Self {
        self.mix = mix;
        self
    }

    fn tables(&self, db: &Database) -> DbResult<TpccTables> {
        if let Some(tables) = self.tables.get() {
            return Ok(*tables);
        }
        let tables = TpccTables {
            warehouse: db.table_id("warehouse")?,
            district: db.table_id("district")?,
            customer: db.table_id("customer")?,
            history: db.table_id("history_c")?,
            new_order: db.table_id("new_order")?,
            orders: db.table_id("orders")?,
            order_line: db.table_id("order_line")?,
            item: db.table_id("item")?,
            stock: db.table_id("stock")?,
            customer_by_name: db.index_id("customer_by_name")?,
            orders_by_customer: db.index_id("orders_by_customer")?,
        };
        let _ = self.tables.set(tables);
        Ok(tables)
    }

    fn pick(&self, rng: &mut SmallRng) -> TpccTxn {
        match self.mix {
            TpccMix::PaymentOnly => return TpccTxn::Payment,
            TpccMix::OrderStatusOnly => return TpccTxn::OrderStatus,
            TpccMix::NewOrderOnly => return TpccTxn::NewOrder,
            TpccMix::Full => {}
        }
        // Standard-ish mix: 45% NewOrder, 43% Payment, 4% each of the rest.
        match uniform(rng, 0, 99) {
            0..=44 => TpccTxn::NewOrder,
            45..=87 => TpccTxn::Payment,
            88..=91 => TpccTxn::OrderStatus,
            92..=95 => TpccTxn::Delivery,
            _ => TpccTxn::StockLevel,
        }
    }

    fn random_customer(&self, rng: &mut SmallRng) -> i64 {
        nurand(rng, 1023, 1, self.customers_per_district)
    }

    fn random_item(&self, rng: &mut SmallRng) -> i64 {
        nurand(rng, 8191, 1, self.items)
    }

    /// Resolves the transaction's customer in district `(w, d)` either by
    /// id or (60% of the time, as in the Payment specification) by last name
    /// through the secondary index, returning its (rid, c_id). The
    /// concurrency-control mode comes from the step context, so the same
    /// code serves both engines.
    fn resolve_customer(
        tables: &TpccTables,
        ctx: &StepCtx<'_>,
        w: Param,
        d: Param,
    ) -> DbResult<(Rid, i64)> {
        let (w_id, d_id) = (ctx.int(w)?, ctx.int(d)?);
        match ctx.int(C_LAST)? {
            BY_ID => {
                let c_id = ctx.int(C_ID)?;
                match ctx.db.probe_primary(
                    ctx.txn,
                    tables.customer,
                    &Key::int3(w_id, d_id, c_id),
                    false,
                    ctx.cc(),
                )? {
                    Some((rid, _)) => Ok((rid, c_id)),
                    None => Err(ctx.abort("no such customer")),
                }
            }
            name => {
                let hits = ctx.db.probe_secondary(
                    ctx.txn,
                    tables.customer_by_name,
                    &Key::from_values([
                        Value::Int(w_id),
                        Value::Int(d_id),
                        Value::Text(c_last(name)),
                    ]),
                    ctx.cc(),
                )?;
                // The specification picks the middle customer of the sorted
                // matches; entries are already grouped under one key.
                let Some(entry) = hits.get(hits.len() / 2) else {
                    return Err(ctx.abort("no customer with last name"));
                };
                let row = ctx
                    .db
                    .read_rid(ctx.txn, tables.customer, entry.rid, false, ctx.cc())?;
                Ok((entry.rid, row[2].as_int()?))
            }
        }
    }

    /// The order lines of orders `from..to` of district `(w_id, d_id)`, in
    /// key order: one primary-key range read, routed on the warehouse.
    fn order_lines(
        tables: &TpccTables,
        ctx: &StepCtx<'_>,
        w_id: i64,
        d_id: i64,
        from: i64,
        to: i64,
    ) -> DbResult<Vec<(Rid, Row)>> {
        let orders = KeyRange::new(
            Some(Key::int3(w_id, d_id, from)),
            Some(Key::int3(w_id, d_id, to)),
        );
        ctx.db
            .range_primary(ctx.txn, tables.order_line, &orders, usize::MAX, ctx.cc())
    }

    /// The cached plan of `plan`, built on first use, bound to `inputs`.
    fn bound(&self, db: &Database, plan: TpccPlan, inputs: TpccInputs<'_>) -> DbResult<TxnProgram> {
        let Some(cell) = self.plans.get(plan.slot()) else {
            // A NewOrder with more items than any generated one.
            return Ok(self.build_plan(db, plan)?.bind(inputs.params()));
        };
        if let Some(plan) = cell.get() {
            return Ok(plan.bind(inputs.params()));
        }
        let built = self.build_plan(db, plan)?;
        Ok(cell.get_or_init(|| built).bind(inputs.params()))
    }

    fn build_plan(&self, db: &Database, plan: TpccPlan) -> DbResult<TxnProgram> {
        let tables = self.tables(db)?;
        Ok(match plan {
            TpccPlan::Payment => Self::payment_plan(tables),
            TpccPlan::OrderStatus => Self::order_status_plan(tables),
            TpccPlan::NewOrder(items) => Self::new_order_plan(tables, items),
            TpccPlan::Delivery => Self::delivery_plan(tables),
            TpccPlan::StockLevel => Self::stock_level_plan(tables),
        })
    }

    // ----- Payment -----------------------------------------------------------

    /// The Payment transaction, defined once — exactly Figure 4: phase one
    /// updates the Warehouse, District and Customer (the customer possibly
    /// on a remote warehouse's executor, which DORA handles by simply
    /// routing that step elsewhere), an RVP, then phase two inserts the
    /// History record (whose insert still takes a centralized row lock under
    /// DORA, Section 4.2.1).
    #[allow(clippy::too_many_arguments)]
    pub fn payment_program(
        &self,
        db: &Database,
        w_id: i64,
        d_id: i64,
        c_w_id: i64,
        c_d_id: i64,
        customer: CustomerSelector,
        amount: f64,
    ) -> DbResult<TxnProgram> {
        let (c_id, c_last) = customer.encode();
        let inputs = TpccInputs {
            w_id,
            d_id,
            c_w_id,
            c_d_id,
            c_id,
            c_last,
            amount,
            ..TpccInputs::default()
        };
        self.bound(db, TpccPlan::Payment, inputs)
    }

    fn payment_plan(tables: TpccTables) -> TxnProgram {
        TxnProgram::new(Self::PAYMENT)
            .step(
                Step::update(
                    "payment-warehouse",
                    tables.warehouse,
                    W_ID,
                    W_ID,
                    OnMissing::Error,
                    |ctx, row| {
                        let ytd = row[2].as_float()?;
                        row[2] = Value::Float(ytd + ctx.float(AMOUNT)?);
                        Ok(())
                    },
                )
                .writes([2]),
            )
            .step(
                Step::update(
                    "payment-district",
                    tables.district,
                    Shape::of([W_ID, D_ID]),
                    Shape::of([W_ID, D_ID]),
                    OnMissing::Error,
                    |ctx, row| {
                        let ytd = row[3].as_float()?;
                        row[3] = Value::Float(ytd + ctx.float(AMOUNT)?);
                        Ok(())
                    },
                )
                .writes([3]),
            )
            .step(
                Step::custom(
                    "payment-customer",
                    tables.customer,
                    Shape::of([C_W_ID, C_D_ID]),
                    LocalMode::Exclusive,
                    move |ctx| {
                        let amount = ctx.float(AMOUNT)?;
                        let (rid, c_id) = Self::resolve_customer(&tables, ctx, C_W_ID, C_D_ID)?;
                        ctx.db
                            .update_rid(ctx.txn, tables.customer, rid, ctx.cc(), |row| {
                                let balance = row[4].as_float()?;
                                let ytd = row[5].as_float()?;
                                let count = row[6].as_int()?;
                                row[4] = Value::Float(balance - amount);
                                row[5] = Value::Float(ytd + amount);
                                row[6] = Value::Int(count + 1);
                                Ok(())
                            })?;
                        ctx.scratch.put("c_id", c_id);
                        Ok(())
                    },
                )
                .writes([4, 5, 6])
                .abort_rate(0.01),
            )
            .rvp()
            // The History key `(h_w_id, h_tid)` carries the transaction id,
            // so two Payments never insert the same key.
            .step(
                Step::insert(
                    "payment-history",
                    tables.history,
                    W_ID,
                    OnDuplicate::Error,
                    |ctx| {
                        let c_id = ctx.scratch.get_int("c_id")?;
                        Ok(vec![
                            Value::Int(ctx.int(W_ID)?),
                            Value::Int(ctx.int(D_ID)?),
                            Value::Int(c_id),
                            Value::Float(ctx.float(AMOUNT)?),
                            Value::Int(ctx.int(Param::TXN_ID)?),
                        ])
                    },
                )
                .full_key(Shape::of([W_ID, Param::TXN_ID])),
            )
    }

    // ----- OrderStatus -------------------------------------------------------

    /// The OrderStatus transaction: read the customer, then (after an RVP)
    /// the latest order, then its order lines — three phases chained by data
    /// dependencies, all of whose steps are routable because every
    /// identifier starts with the warehouse id.
    pub(crate) fn order_status_program(
        &self,
        db: &Database,
        w_id: i64,
        d_id: i64,
        customer: CustomerSelector,
    ) -> DbResult<TxnProgram> {
        let (c_id, c_last) = customer.encode();
        let inputs = TpccInputs {
            w_id,
            d_id,
            c_id,
            c_last,
            ..TpccInputs::default()
        };
        self.bound(db, TpccPlan::OrderStatus, inputs)
    }

    fn order_status_plan(tables: TpccTables) -> TxnProgram {
        let district = || Shape::of([W_ID, D_ID]);
        TxnProgram::new(Self::ORDER_STATUS)
            .step(
                Step::custom(
                    "orderstatus-customer",
                    tables.customer,
                    district(),
                    LocalMode::Shared,
                    move |ctx| {
                        let (_, c_id) = Self::resolve_customer(&tables, ctx, W_ID, D_ID)?;
                        ctx.scratch.put("c_id", c_id);
                        Ok(())
                    },
                )
                .reads([2, 3])
                .abort_rate(0.01),
            )
            .rvp()
            .step(
                Step::custom(
                    "orderstatus-order",
                    tables.orders,
                    district(),
                    LocalMode::Shared,
                    move |ctx| {
                        let c_id = ctx.scratch.get_int("c_id")?;
                        let orders = ctx.db.probe_secondary(
                            ctx.txn,
                            tables.orders_by_customer,
                            &Key::int3(ctx.int(W_ID)?, ctx.int(D_ID)?, c_id),
                            ctx.cc(),
                        )?;
                        let Some(latest) =
                            orders.iter().map(|e| e.rid).max_by_key(|rid| rid.pack())
                        else {
                            return Err(ctx.abort("customer has no orders"));
                        };
                        let order =
                            ctx.db
                                .read_rid(ctx.txn, tables.orders, latest, false, ctx.cc())?;
                        ctx.scratch.put("o_id", order[2].as_int()?);
                        Ok(())
                    },
                )
                .reads([2, 3])
                .abort_rate(0.02),
            )
            .rvp()
            .step(
                Step::custom(
                    "orderstatus-orderlines",
                    tables.order_line,
                    district(),
                    LocalMode::Shared,
                    move |ctx| {
                        let o_id = ctx.scratch.get_int("o_id")?;
                        let (w_id, d_id) = (ctx.int(W_ID)?, ctx.int(D_ID)?);
                        Self::order_lines(&tables, ctx, w_id, d_id, o_id, o_id + 1)?;
                        Ok(())
                    },
                )
                .reads([6]),
            )
    }

    // ----- NewOrder ----------------------------------------------------------

    /// The NewOrder transaction. `items` is the order's item list
    /// (item id, quantity); an invalid item id aborts the whole transaction
    /// (as ~1% of generated NewOrders do, per the specification).
    ///
    /// Phase one reads the customer and the items (item steps route on the
    /// item id — under DORA they fan out to the Item table's executors) and
    /// advances the district's order counter; phase two inserts the order,
    /// the new-order entry and the order lines and updates the stock. There
    /// is one plan per item count.
    pub(crate) fn new_order_program(
        &self,
        db: &Database,
        w_id: i64,
        d_id: i64,
        c_id: i64,
        items: Vec<(i64, i64)>,
    ) -> DbResult<TxnProgram> {
        let inputs = TpccInputs {
            w_id,
            d_id,
            c_id,
            items: &items,
            ..TpccInputs::default()
        };
        self.bound(db, TpccPlan::NewOrder(items.len()), inputs)
    }

    fn new_order_plan(tables: TpccTables, items: usize) -> TxnProgram {
        let district = || Shape::of([W_ID, D_ID]);
        let mut program = TxnProgram::new(Self::NEW_ORDER)
            .step(
                Step::read(
                    "neworder-customer",
                    tables.customer,
                    district(),
                    Shape::of([W_ID, D_ID, C_ID]),
                    OnMissing::Abort("no such customer"),
                    |_ctx, _row| Ok(()),
                )
                .reads([]),
            )
            .step(
                Step::update(
                    "neworder-district",
                    tables.district,
                    district(),
                    district(),
                    OnMissing::Error,
                    |ctx, row| {
                        let o_id = row[4].as_int()?;
                        row[4] = Value::Int(o_id + 1);
                        ctx.scratch.put("o_id", o_id);
                        Ok(())
                    },
                )
                .writes([4]),
            );
        // One read-only step per item, routed on the item id; the steps
        // share one label, so they are one conflict template.
        for index in 0..items {
            program = program.step(
                Step::read(
                    "neworder-item",
                    tables.item,
                    item_id(index),
                    item_id(index),
                    OnMissing::Abort("unused item id"),
                    move |ctx, row| {
                        ctx.scratch.put_at("price", index, row[2].as_float()?);
                        Ok(())
                    },
                )
                .reads([2])
                .abort_rate(0.01),
            );
        }

        // Phase two: all the inserts plus the stock updates, grouped per
        // table into merged steps keyed by the warehouse (consecutive
        // actions with the same identifier can be merged, Section 4.1.2).
        program
            .rvp()
            .step(
                Step::custom(
                    "neworder-stock",
                    tables.stock,
                    W_ID,
                    LocalMode::Exclusive,
                    move |ctx| {
                        let w_id = ctx.int(W_ID)?;
                        for index in 0..items {
                            let quantity = ctx.int(quantity(index))?;
                            ctx.db.update_primary(
                                ctx.txn,
                                tables.stock,
                                &Key::int2(w_id, ctx.int(item_id(index))?),
                                ctx.cc(),
                                |row| {
                                    let quantity_now = row[2].as_int()?;
                                    let new_quantity = if quantity_now >= quantity + 10 {
                                        quantity_now - quantity
                                    } else {
                                        quantity_now + 91 - quantity
                                    };
                                    row[2] = Value::Int(new_quantity);
                                    row[3] = Value::Int(row[3].as_int()? + quantity);
                                    row[4] = Value::Int(row[4].as_int()? + 1);
                                    Ok(())
                                },
                            )?;
                        }
                        Ok(())
                    },
                )
                .writes([2, 3, 4]),
            )
            .insert(
                "neworder-orders",
                tables.orders,
                W_ID,
                OnDuplicate::Error,
                move |ctx| {
                    let o_id = ctx.scratch.get_int("o_id")?;
                    Ok(vec![
                        Value::Int(ctx.int(W_ID)?),
                        Value::Int(ctx.int(D_ID)?),
                        Value::Int(o_id),
                        Value::Int(ctx.int(C_ID)?),
                        Value::Int(0),
                        Value::Int(items as i64),
                    ])
                },
            )
            .insert(
                "neworder-newordertab",
                tables.new_order,
                W_ID,
                OnDuplicate::Error,
                |ctx| {
                    let o_id = ctx.scratch.get_int("o_id")?;
                    Ok(vec![
                        Value::Int(ctx.int(W_ID)?),
                        Value::Int(ctx.int(D_ID)?),
                        Value::Int(o_id),
                    ])
                },
            )
            .step(
                Step::custom(
                    "neworder-orderlines",
                    tables.order_line,
                    W_ID,
                    LocalMode::Exclusive,
                    move |ctx| {
                        let o_id = ctx.scratch.get_int("o_id")?;
                        let (w_id, d_id) = (ctx.int(W_ID)?, ctx.int(D_ID)?);
                        for index in 0..items {
                            let price = ctx.scratch.get_float_at("price", index)?;
                            let quantity = ctx.int(quantity(index))?;
                            ctx.db.insert(
                                ctx.txn,
                                tables.order_line,
                                vec![
                                    Value::Int(w_id),
                                    Value::Int(d_id),
                                    Value::Int(o_id),
                                    Value::Int(index as i64 + 1),
                                    Value::Int(ctx.int(item_id(index))?),
                                    Value::Int(quantity),
                                    Value::Float(price * quantity as f64),
                                ],
                                ctx.write_cc(),
                            )?;
                        }
                        Ok(())
                    },
                )
                .inserts_or_deletes(),
            )
    }

    // ----- Delivery ----------------------------------------------------------

    /// The Delivery transaction: for every district of the warehouse,
    /// deliver the oldest undelivered order. All steps are keyed by the
    /// warehouse, so the per-district loops are merged into one step per
    /// table, chained by RVPs for the data dependencies.
    pub(crate) fn delivery_program(
        &self,
        db: &Database,
        w_id: i64,
        carrier: i64,
    ) -> DbResult<TxnProgram> {
        let inputs = TpccInputs {
            w_id,
            extra: carrier,
            ..TpccInputs::default()
        };
        self.bound(db, TpccPlan::Delivery, inputs)
    }

    fn delivery_plan(tables: TpccTables) -> TxnProgram {
        // Scratchpad entries are indexed by the district id.
        let district = |d_id: i64| d_id as usize;
        TxnProgram::new(Self::DELIVERY)
            .step(
                Step::custom(
                    "delivery-neworder",
                    tables.new_order,
                    W_ID,
                    LocalMode::Exclusive,
                    move |ctx| {
                        let w_id = ctx.int(W_ID)?;
                        for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
                            // The district's oldest order is the first key of
                            // its `new_order` range.
                            let range = KeyRange::new(
                                Some(Key::int2(w_id, d_id)),
                                Some(Key::int2(w_id, d_id + 1)),
                            );
                            let Some((_, oldest)) = ctx
                                .db
                                .range_primary(ctx.txn, tables.new_order, &range, 1, ctx.cc())?
                                .pop()
                            else {
                                continue;
                            };
                            let o_id = oldest[2].as_int()?;
                            ctx.db.delete_primary(
                                ctx.txn,
                                tables.new_order,
                                &Key::int3(w_id, d_id, o_id),
                                ctx.write_cc(),
                            )?;
                            ctx.scratch.put_at("deliver", district(d_id), o_id);
                        }
                        Ok(())
                    },
                )
                .inserts_or_deletes(),
            )
            .rvp()
            .step(
                Step::custom(
                    "delivery-orders",
                    tables.orders,
                    W_ID,
                    LocalMode::Exclusive,
                    move |ctx| {
                        let (w_id, carrier) = (ctx.int(W_ID)?, ctx.int(CARRIER)?);
                        for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
                            let Some(o_id) = ctx.scratch.get_at("deliver", district(d_id)) else {
                                continue;
                            };
                            let o_id = o_id.as_int()?;
                            let mut c_id = 0;
                            ctx.db.update_primary(
                                ctx.txn,
                                tables.orders,
                                &Key::int3(w_id, d_id, o_id),
                                ctx.cc(),
                                |row| {
                                    c_id = row[3].as_int()?;
                                    row[4] = Value::Int(carrier);
                                    Ok(())
                                },
                            )?;
                            ctx.scratch.put_at("customer", district(d_id), c_id);
                            // Sum the order lines while we are here (the same
                            // warehouse executor owns them under the same routing
                            // field, but they belong to another table).
                            let mut amount = 0.0;
                            for (_, line) in
                                Self::order_lines(&tables, ctx, w_id, d_id, o_id, o_id + 1)?
                            {
                                amount += line[6].as_float()?;
                            }
                            ctx.scratch.put_at("amount", district(d_id), amount);
                        }
                        Ok(())
                    },
                )
                .writes([4]),
            )
            .rvp()
            .step(
                Step::custom(
                    "delivery-customer",
                    tables.customer,
                    W_ID,
                    LocalMode::Exclusive,
                    move |ctx| {
                        let w_id = ctx.int(W_ID)?;
                        for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
                            let Some(c_id) = ctx.scratch.get_at("customer", district(d_id)) else {
                                continue;
                            };
                            let c_id = c_id.as_int()?;
                            let amount = ctx
                                .scratch
                                .get_float_at("amount", district(d_id))
                                .unwrap_or(0.0);
                            ctx.db.update_primary(
                                ctx.txn,
                                tables.customer,
                                &Key::int3(w_id, d_id, c_id),
                                ctx.cc(),
                                |row| {
                                    row[4] = Value::Float(row[4].as_float()? + amount);
                                    row[7] = Value::Int(row[7].as_int()? + 1);
                                    Ok(())
                                },
                            )?;
                        }
                        Ok(())
                    },
                )
                .writes([4, 7]),
            )
    }

    // ----- StockLevel --------------------------------------------------------

    /// The StockLevel transaction: count stock entries below `threshold`
    /// among the items of the district's 20 most recent orders — district
    /// read, then order-line collection, then the stock count, three phases
    /// chained by data dependencies, all keyed by the warehouse id.
    pub(crate) fn stock_level_program(
        &self,
        db: &Database,
        w_id: i64,
        d_id: i64,
        threshold: i64,
    ) -> DbResult<TxnProgram> {
        let inputs = TpccInputs {
            w_id,
            d_id,
            extra: threshold,
            ..TpccInputs::default()
        };
        self.bound(db, TpccPlan::StockLevel, inputs)
    }

    fn stock_level_plan(tables: TpccTables) -> TxnProgram {
        let district = || Shape::of([W_ID, D_ID]);
        TxnProgram::new(Self::STOCK_LEVEL)
            .step(
                Step::read(
                    "stocklevel-district",
                    tables.district,
                    district(),
                    district(),
                    OnMissing::Abort("no such district"),
                    |ctx, row| {
                        ctx.scratch.put("next_o_id", row[4].as_int()?);
                        Ok(())
                    },
                )
                .reads([4]),
            )
            .rvp()
            .step(
                Step::custom(
                    "stocklevel-orderlines",
                    tables.order_line,
                    district(),
                    LocalMode::Shared,
                    move |ctx| {
                        let next_o_id = ctx.scratch.get_int("next_o_id")?;
                        let lines = Self::order_lines(
                            &tables,
                            ctx,
                            ctx.int(W_ID)?,
                            ctx.int(D_ID)?,
                            (next_o_id - 20).max(0),
                            next_o_id,
                        )?;
                        let mut item_ids = lines
                            .iter()
                            .map(|(_, line)| line[4].as_int())
                            .collect::<DbResult<Vec<_>>>()?;
                        item_ids.sort_unstable();
                        item_ids.dedup();
                        ctx.scratch.put("distinct_items", item_ids.len() as i64);
                        for (index, item_id) in item_ids.iter().enumerate() {
                            ctx.scratch.put_at("item", index, *item_id);
                        }
                        Ok(())
                    },
                )
                .reads([4]),
            )
            .rvp()
            .step(
                Step::custom(
                    "stocklevel-stock",
                    tables.stock,
                    W_ID,
                    LocalMode::Shared,
                    move |ctx| {
                        let (w_id, threshold) = (ctx.int(W_ID)?, ctx.int(THRESHOLD)?);
                        let count = ctx.scratch.get_int("distinct_items")?;
                        let mut low = 0;
                        for index in 0..count.max(0) as usize {
                            let item_id = ctx.scratch.get_int_at("item", index)?;
                            if let Some((_, stock)) = ctx.db.probe_primary(
                                ctx.txn,
                                tables.stock,
                                &Key::int2(w_id, item_id),
                                false,
                                ctx.cc(),
                            )? {
                                if stock[2].as_int()? < threshold {
                                    low += 1;
                                }
                            }
                        }
                        let _ = low;
                        Ok(())
                    },
                )
                .reads([2]),
            )
    }

    // ----- input generation ---------------------------------------------------

    /// Generates Payment inputs: (w_id, d_id, c_w_id, c_d_id, selector, amount).
    pub fn payment_inputs(
        &self,
        rng: &mut SmallRng,
    ) -> (i64, i64, i64, i64, CustomerSelector, f64) {
        let w_id = uniform(rng, 1, self.warehouses);
        let d_id = uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        // 15% of payments are for a customer of a remote warehouse.
        let (c_w_id, c_d_id) = if self.warehouses > 1 && chance(rng, 15) {
            let mut other = uniform(rng, 1, self.warehouses - 1);
            if other >= w_id {
                other += 1;
            }
            (other, uniform(rng, 1, DISTRICTS_PER_WAREHOUSE))
        } else {
            (w_id, d_id)
        };
        let selector = self.random_selector(rng);
        let amount = uniform(rng, 100, 500_000) as f64 / 100.0;
        (w_id, d_id, c_w_id, c_d_id, selector, amount)
    }

    /// 60% of the time the customer is selected by last name: one that is
    /// guaranteed to exist in the loaded data (the loader assigns
    /// `c_last(c_id % 1000)`).
    fn random_selector(&self, rng: &mut SmallRng) -> CustomerSelector {
        if chance(rng, 60) {
            let c_id = uniform(rng, 1, self.customers_per_district);
            CustomerSelector::ByLastNumber(c_id % 1000)
        } else {
            CustomerSelector::ById(self.random_customer(rng))
        }
    }

    /// Generates NewOrder inputs: (w_id, d_id, c_id, items). Roughly 1% of
    /// the generated orders contain an invalid item id and must abort.
    pub(crate) fn new_order_inputs(&self, rng: &mut SmallRng) -> (i64, i64, i64, Vec<(i64, i64)>) {
        let w_id = uniform(rng, 1, self.warehouses);
        let d_id = uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let c_id = self.random_customer(rng);
        let count = uniform(rng, 5, 15);
        let mut items = Vec::with_capacity(count as usize);
        for _ in 0..count {
            items.push((self.random_item(rng), uniform(rng, 1, 10)));
        }
        if chance(rng, 1) {
            // Invalid item id, forcing a rollback as the specification does.
            items.last_mut().expect("at least 5 items").0 = self.items + 1_000_000;
        }
        (w_id, d_id, c_id, items)
    }
}

/// How Payment / OrderStatus select their customer.
#[derive(Debug, Clone)]
pub enum CustomerSelector {
    /// By primary key.
    ById(i64),
    /// By the last name `c_last(n)` (the loader's names; `n` is clamped to
    /// `0..=999`) through the `customer_by_name` secondary index.
    ByLastNumber(i64),
}

impl CustomerSelector {
    /// The selector's `(C_ID, C_LAST)` parameter slots.
    fn encode(&self) -> (i64, i64) {
        match self {
            CustomerSelector::ById(c_id) => (*c_id, BY_ID),
            CustomerSelector::ByLastNumber(number) => (0, (*number).clamp(0, 999)),
        }
    }
}

/// The plans a TPC-C workload caches: one per transaction type, and one per
/// NewOrder item count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TpccPlan {
    Payment,
    OrderStatus,
    NewOrder(usize),
    Delivery,
    StockLevel,
}

/// Cached NewOrder plans: item counts `0..NEW_ORDER_PLANS` (the mix draws
/// 5 to 15); a longer order builds its plan on the spot.
const NEW_ORDER_PLANS: usize = 16;
const TPCC_PLANS: usize = 4 + NEW_ORDER_PLANS;

impl TpccPlan {
    /// The plan's cache slot; past the cache for a NewOrder too long for it.
    fn slot(self) -> usize {
        match self {
            TpccPlan::Payment => 0,
            TpccPlan::OrderStatus => 1,
            TpccPlan::Delivery => 2,
            TpccPlan::StockLevel => 3,
            TpccPlan::NewOrder(items) => 4 + items.min(NEW_ORDER_PLANS),
        }
    }
}

// The parameter slots of the TPC-C plans; the names are the key atoms of the
// derived conflict templates.
const W_ID: Param = Param::new(0, "w_id");
const D_ID: Param = Param::new(1, "d_id");
const C_W_ID: Param = Param::new(2, "c_w_id");
const C_D_ID: Param = Param::new(3, "c_d_id");
const C_ID: Param = Param::new(4, "c_id");
/// The customer's last-name number (`c_last`), or [`BY_ID`].
const C_LAST: Param = Param::new(5, "c_last");
const AMOUNT: Param = Param::new(6, "amount");
const CARRIER: Param = Param::new(7, "carrier");
const THRESHOLD: Param = Param::new(7, "threshold");
/// `C_LAST` when the customer is selected by id.
const BY_ID: i64 = -1;
/// The first slot of NewOrder's item list: item id and quantity per item.
const ITEMS: usize = 8;

fn item_id(index: usize) -> Param {
    Param::new(ITEMS + 2 * index, "i_id")
}

fn quantity(index: usize) -> Param {
    Param::new(ITEMS + 2 * index + 1, "quantity")
}

/// One TPC-C transaction's inputs, in the slots above.
#[derive(Debug, Clone, Copy, Default)]
struct TpccInputs<'a> {
    w_id: i64,
    d_id: i64,
    c_w_id: i64,
    c_d_id: i64,
    c_id: i64,
    c_last: i64,
    amount: f64,
    /// Delivery's carrier or StockLevel's threshold.
    extra: i64,
    items: &'a [(i64, i64)],
}

impl TpccInputs<'_> {
    /// The slots, collected in one go: a NewOrder's item list is one buffer,
    /// allocated once.
    fn params(&self) -> Params {
        let items = self
            .items
            .iter()
            .flat_map(|&(item, quantity)| [item, quantity]);
        [
            self.w_id,
            self.d_id,
            self.c_w_id,
            self.c_d_id,
            self.c_id,
            self.c_last,
            self.amount.to_bits() as i64,
            self.extra,
        ]
        .into_iter()
        .chain(items)
        .collect()
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &'static str {
        match self.mix {
            TpccMix::Full => "TPC-C",
            TpccMix::PaymentOnly => "TPC-C Payment",
            TpccMix::OrderStatusOnly => "TPC-C OrderStatus",
            TpccMix::NewOrderOnly => "TPC-C NewOrder",
        }
    }

    fn create_schema(&self, db: &Database) -> DbResult<()> {
        db.create_table(TableSchema::new(
            "warehouse",
            vec![
                ColumnDef::new("w_id", ValueType::Int),
                ColumnDef::new("w_name", ValueType::Text),
                ColumnDef::new("w_ytd", ValueType::Float),
            ],
            vec![0],
        ))?;
        db.create_table(TableSchema::new(
            "district",
            vec![
                ColumnDef::new("d_w_id", ValueType::Int),
                ColumnDef::new("d_id", ValueType::Int),
                ColumnDef::new("d_name", ValueType::Text),
                ColumnDef::new("d_ytd", ValueType::Float),
                ColumnDef::new("d_next_o_id", ValueType::Int),
            ],
            vec![0, 1],
        ))?;
        db.create_table(TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("c_w_id", ValueType::Int),
                ColumnDef::new("c_d_id", ValueType::Int),
                ColumnDef::new("c_id", ValueType::Int),
                ColumnDef::new("c_last", ValueType::Text),
                ColumnDef::new("c_balance", ValueType::Float),
                ColumnDef::new("c_ytd_payment", ValueType::Float),
                ColumnDef::new("c_payment_cnt", ValueType::Int),
                ColumnDef::new("c_delivery_cnt", ValueType::Int),
            ],
            vec![0, 1, 2],
        ))?;
        db.create_table(TableSchema::new(
            "history_c",
            vec![
                ColumnDef::new("h_w_id", ValueType::Int),
                ColumnDef::new("h_d_id", ValueType::Int),
                ColumnDef::new("h_c_id", ValueType::Int),
                ColumnDef::new("h_amount", ValueType::Float),
                ColumnDef::new("h_tid", ValueType::Int),
            ],
            vec![0, 4],
        ))?;
        db.create_table(TableSchema::new(
            "new_order",
            vec![
                ColumnDef::new("no_w_id", ValueType::Int),
                ColumnDef::new("no_d_id", ValueType::Int),
                ColumnDef::new("no_o_id", ValueType::Int),
            ],
            vec![0, 1, 2],
        ))?;
        db.create_table(TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("o_w_id", ValueType::Int),
                ColumnDef::new("o_d_id", ValueType::Int),
                ColumnDef::new("o_id", ValueType::Int),
                ColumnDef::new("o_c_id", ValueType::Int),
                ColumnDef::new("o_carrier_id", ValueType::Int),
                ColumnDef::new("o_ol_cnt", ValueType::Int),
            ],
            vec![0, 1, 2],
        ))?;
        db.create_table(TableSchema::new(
            "order_line",
            vec![
                ColumnDef::new("ol_w_id", ValueType::Int),
                ColumnDef::new("ol_d_id", ValueType::Int),
                ColumnDef::new("ol_o_id", ValueType::Int),
                ColumnDef::new("ol_number", ValueType::Int),
                ColumnDef::new("ol_i_id", ValueType::Int),
                ColumnDef::new("ol_quantity", ValueType::Int),
                ColumnDef::new("ol_amount", ValueType::Float),
            ],
            vec![0, 1, 2, 3],
        ))?;
        db.create_table(TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", ValueType::Int),
                ColumnDef::new("i_name", ValueType::Text),
                ColumnDef::new("i_price", ValueType::Float),
            ],
            vec![0],
        ))?;
        db.create_table(TableSchema::new(
            "stock",
            vec![
                ColumnDef::new("s_w_id", ValueType::Int),
                ColumnDef::new("s_i_id", ValueType::Int),
                ColumnDef::new("s_quantity", ValueType::Int),
                ColumnDef::new("s_ytd", ValueType::Int),
                ColumnDef::new("s_order_cnt", ValueType::Int),
            ],
            vec![0, 1],
        ))?;
        let customer = db.table_id("customer")?;
        db.create_index(IndexSpec {
            name: "customer_by_name".into(),
            table: customer,
            key_columns: vec![0, 1, 3],
            unique: false,
        })?;
        let orders = db.table_id("orders")?;
        db.create_index(IndexSpec {
            name: "orders_by_customer".into(),
            table: orders,
            key_columns: vec![0, 1, 3],
            unique: false,
        })?;
        Ok(())
    }

    fn load(&self, db: &Database) -> DbResult<()> {
        let tables = self.tables(db)?;
        for item in 1..=self.items {
            db.load_row(
                tables.item,
                vec![
                    Value::Int(item),
                    Value::Text(format!("item-{item}")),
                    Value::Float(1.0 + (item % 100) as f64),
                ],
            )?;
        }
        for w_id in 1..=self.warehouses {
            db.load_row(
                tables.warehouse,
                vec![
                    Value::Int(w_id),
                    Value::Text(format!("warehouse-{w_id}")),
                    Value::Float(0.0),
                ],
            )?;
            for item in 1..=self.items {
                db.load_row(
                    tables.stock,
                    vec![
                        Value::Int(w_id),
                        Value::Int(item),
                        Value::Int(50 + ((w_id + item) % 50)),
                        Value::Int(0),
                        Value::Int(0),
                    ],
                )?;
            }
            for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
                // Each district starts with one historical order per customer
                // (o_id == c_id), so OrderStatus always has an order to find;
                // the next order id continues from there.
                db.load_row(
                    tables.district,
                    vec![
                        Value::Int(w_id),
                        Value::Int(d_id),
                        Value::Text(format!("district-{w_id}-{d_id}")),
                        Value::Float(0.0),
                        Value::Int(self.customers_per_district + 1),
                    ],
                )?;
                for c_id in 1..=self.customers_per_district {
                    db.load_row(
                        tables.customer,
                        vec![
                            Value::Int(w_id),
                            Value::Int(d_id),
                            Value::Int(c_id),
                            Value::Text(c_last(c_id % 1000)),
                            Value::Float(-10.0),
                            Value::Float(10.0),
                            Value::Int(1),
                            Value::Int(0),
                        ],
                    )?;
                    let o_id = c_id;
                    let line_count = 3;
                    db.load_row(
                        tables.orders,
                        vec![
                            Value::Int(w_id),
                            Value::Int(d_id),
                            Value::Int(o_id),
                            Value::Int(c_id),
                            Value::Int(1 + (o_id % 10)),
                            Value::Int(line_count),
                        ],
                    )?;
                    for number in 1..=line_count {
                        let item = 1 + ((o_id * 7 + number) % self.items);
                        db.load_row(
                            tables.order_line,
                            vec![
                                Value::Int(w_id),
                                Value::Int(d_id),
                                Value::Int(o_id),
                                Value::Int(number),
                                Value::Int(item),
                                Value::Int(1 + (number % 5)),
                                Value::Float(10.0 + number as f64),
                            ],
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    fn bind_dora(&self, engine: &DoraEngine, executors_per_table: usize) -> DbResult<()> {
        let tables = self.tables(engine.db())?;
        for table in [
            tables.warehouse,
            tables.district,
            tables.customer,
            tables.history,
            tables.new_order,
            tables.orders,
            tables.order_line,
            tables.stock,
        ] {
            engine.bind_table(table, executors_per_table, 1, self.warehouses)?;
        }
        // Item routes on the item id.
        engine.bind_table(tables.item, executors_per_table, 1, self.items)?;
        Ok(())
    }

    fn txn_labels(&self) -> &'static [&'static str] {
        match self.mix {
            TpccMix::Full => &Self::ALL_LABELS,
            TpccMix::PaymentOnly => &[Self::PAYMENT],
            TpccMix::OrderStatusOnly => &[Self::ORDER_STATUS],
            TpccMix::NewOrderOnly => &[Self::NEW_ORDER],
        }
    }

    fn next_program(&self, db: &Database, rng: &mut SmallRng) -> DbResult<TxnProgram> {
        match self.pick(rng) {
            TpccTxn::Payment => {
                let (w_id, d_id, c_w_id, c_d_id, selector, amount) = self.payment_inputs(rng);
                self.payment_program(db, w_id, d_id, c_w_id, c_d_id, selector, amount)
            }
            TpccTxn::OrderStatus => {
                let w_id = uniform(rng, 1, self.warehouses);
                let d_id = uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
                let selector = self.random_selector(rng);
                self.order_status_program(db, w_id, d_id, selector)
            }
            TpccTxn::NewOrder => {
                let (w_id, d_id, c_id, items) = self.new_order_inputs(rng);
                self.new_order_program(db, w_id, d_id, c_id, items)
            }
            TpccTxn::Delivery => {
                let w_id = uniform(rng, 1, self.warehouses);
                let carrier = uniform(rng, 1, 10);
                self.delivery_program(db, w_id, carrier)
            }
            TpccTxn::StockLevel => {
                let w_id = uniform(rng, 1, self.warehouses);
                let d_id = uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
                let threshold = uniform(rng, 10, 20);
                self.stock_level_program(db, w_id, d_id, threshold)
            }
        }
    }

    /// A one-item NewOrder stands for every item count: its item steps
    /// share one label, so every NewOrder plan has the same templates.
    fn plans(&self, db: &Database) -> DbResult<Vec<TxnProgram>> {
        let mut plans = Vec::new();
        for plan in [
            TpccPlan::NewOrder(1),
            TpccPlan::Payment,
            TpccPlan::OrderStatus,
            TpccPlan::Delivery,
            TpccPlan::StockLevel,
        ] {
            let program = self.bound(db, plan, TpccInputs::default())?;
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

    fn small_tpcc() -> (Arc<Database>, Tpcc) {
        let db = Database::for_tests();
        let workload = Tpcc::with_scale(2, 30, 50);
        workload.setup(&db).unwrap();
        (db, workload)
    }

    #[test]
    fn load_populates_catalog_tables() {
        let (db, workload) = small_tpcc();
        let tables = workload.tables(&db).unwrap();
        assert_eq!(db.row_count(tables.warehouse).unwrap(), 2);
        assert_eq!(db.row_count(tables.district).unwrap(), 20);
        assert_eq!(db.row_count(tables.customer).unwrap(), 2 * 10 * 30);
        assert_eq!(db.row_count(tables.item).unwrap(), 50);
        assert_eq!(db.row_count(tables.stock).unwrap(), 100);
    }

    #[test]
    fn payment_program_compiles_to_the_figure4_graph() {
        let (db, workload) = small_tpcc();
        let graph = workload
            .payment_program(&db, 1, 1, 1, 1, CustomerSelector::ById(1), 10.0)
            .unwrap()
            .compile_dora();
        assert_eq!(graph.phase_count(), 2, "Figure 4: two phases");
        assert_eq!(
            graph.actions_in(0),
            3,
            "warehouse, district and customer actions"
        );
        assert_eq!(graph.actions_in(1), 1, "history insert");
        assert!(graph.describe()[1][0].starts_with("payment-history"));
    }

    #[test]
    fn payment_baseline_and_dora_produce_identical_balances() {
        let db_base = Database::for_tests();
        let db_dora = Database::for_tests();
        let workload_base = Tpcc::with_scale(2, 30, 50);
        let workload_dora = Tpcc::with_scale(2, 30, 50);
        workload_base.setup(&db_base).unwrap();
        workload_dora.setup(&db_dora).unwrap();
        let dora = DoraEngine::new(Arc::clone(&db_dora), DoraConfig::for_tests());
        workload_dora.bind_dora(&dora, 2).unwrap();

        // The same deterministic payments through both compilations.
        for i in 1..=20i64 {
            let w_id = (i % 2) + 1;
            let d_id = (i % 10) + 1;
            let c_id = (i % 30) + 1;
            let amount = i as f64;
            let program = workload_base
                .payment_program(
                    &db_base,
                    w_id,
                    d_id,
                    w_id,
                    d_id,
                    CustomerSelector::ById(c_id),
                    amount,
                )
                .unwrap();
            assert_eq!(
                run_baseline_once(&db_base, program).unwrap(),
                TxnOutcome::Committed
            );
            let program = workload_dora
                .payment_program(
                    &db_dora,
                    w_id,
                    d_id,
                    w_id,
                    d_id,
                    CustomerSelector::ById(c_id),
                    amount,
                )
                .unwrap();
            dora.execute(program.compile_dora()).unwrap();
        }

        let tables = workload_base.tables(&db_base).unwrap();
        let check_base = db_base.begin();
        let check_dora = db_dora.begin();
        for w_id in 1..=2i64 {
            let (_, wh_base) = db_base
                .probe_primary(
                    &check_base,
                    tables.warehouse,
                    &Key::int(w_id),
                    false,
                    CcMode::Full,
                )
                .unwrap()
                .unwrap();
            let (_, wh_dora) = db_dora
                .probe_primary(
                    &check_dora,
                    tables.warehouse,
                    &Key::int(w_id),
                    false,
                    CcMode::Full,
                )
                .unwrap()
                .unwrap();
            assert_eq!(wh_base[2], wh_dora[2], "warehouse {w_id} YTD must match");
        }
        assert_eq!(db_base.row_count(tables.history).unwrap(), 20);
        assert_eq!(db_dora.row_count(tables.history).unwrap(), 20);
        db_base.commit(&check_base).unwrap();
        db_dora.commit(&check_dora).unwrap();
        dora.shutdown();
    }

    #[test]
    fn new_order_then_order_status_and_delivery_roundtrip() {
        let (db, workload) = small_tpcc();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        workload.bind_dora(&engine, 2).unwrap();
        let initial_order_lines = db
            .row_count(workload.tables(&db).unwrap().order_line)
            .unwrap();
        // Place an order for customer 5 in (1, 1).
        let items = vec![(1, 2), (2, 3), (3, 1), (4, 4), (5, 1)];
        let program = workload
            .new_order_program(&db, 1, 1, 5, items.clone())
            .unwrap();
        engine.execute(program.compile_dora()).unwrap();
        // OrderStatus for that customer must find the order and its lines.
        let program = workload
            .order_status_program(&db, 1, 1, CustomerSelector::ById(5))
            .unwrap();
        engine.execute(program.compile_dora()).unwrap();
        // Delivery picks it up.
        let program = workload.delivery_program(&db, 1, 7).unwrap();
        engine.execute(program.compile_dora()).unwrap();
        // StockLevel still works afterwards.
        let program = workload.stock_level_program(&db, 1, 1, 100).unwrap();
        engine.execute(program.compile_dora()).unwrap();

        let tables = workload.tables(&db).unwrap();
        // The new-order entry was consumed by Delivery.
        assert_eq!(db.row_count(tables.new_order).unwrap(), 0);

        // Districts whose oldest orders differ, and districts with nothing
        // to deliver: district 1 holds orders 32 and 33, district 2 order 31,
        // districts 3–10 none. One Delivery takes 32 and 31 and leaves 33.
        for (d_id, c_id) in [(1, 6), (1, 7), (2, 8)] {
            let program = workload
                .new_order_program(&db, 1, d_id, c_id, items.clone())
                .unwrap();
            engine.execute(program.compile_dora()).unwrap();
        }
        let carrier_and_deliveries = |d_id: i64, o_id: i64, c_id: i64| {
            let check = db.begin();
            let probe = |table, key: Key| {
                db.probe_primary(&check, table, &key, false, CcMode::Full)
                    .unwrap()
                    .unwrap()
                    .1
            };
            let order = probe(tables.orders, Key::int3(1, d_id, o_id));
            let customer = probe(tables.customer, Key::int3(1, d_id, c_id));
            db.commit(&check).unwrap();
            (order[4].clone(), customer[7].clone())
        };
        let program = workload.delivery_program(&db, 1, 8).unwrap();
        engine.execute(program.compile_dora()).unwrap();
        assert_eq!(db.row_count(tables.new_order).unwrap(), 1);
        let delivered = (Value::Int(8), Value::Int(1));
        assert_eq!(carrier_and_deliveries(1, 32, 6), delivered);
        assert_eq!(carrier_and_deliveries(2, 31, 8), delivered);
        let (carrier, deliveries) = carrier_and_deliveries(1, 33, 7);
        assert_ne!(
            carrier,
            Value::Int(8),
            "order 33 is not district 1's oldest"
        );
        assert_eq!(deliveries, Value::Int(0));
        // The next Delivery finds one district with an order and nine without.
        let program = workload.delivery_program(&db, 1, 9).unwrap();
        engine.execute(program.compile_dora()).unwrap();
        assert_eq!(db.row_count(tables.new_order).unwrap(), 0);
        assert_eq!(
            carrier_and_deliveries(1, 33, 7),
            (Value::Int(9), Value::Int(1))
        );
        assert_eq!(carrier_and_deliveries(2, 31, 8), delivered);

        let check = db.begin();
        // The customer received the delivery (delivery count bumped).
        let (_, customer) = db
            .probe_primary(
                &check,
                tables.customer,
                &Key::int3(1, 1, 5),
                false,
                CcMode::Full,
            )
            .unwrap()
            .unwrap();
        assert_eq!(customer[7], Value::Int(1));
        // Each new order added exactly its 5 lines on top of the loaded data.
        assert_eq!(
            db.row_count(tables.order_line).unwrap(),
            initial_order_lines + 4 * 5
        );
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn invalid_item_aborts_new_order_under_both_engines() {
        let (db, workload) = small_tpcc();
        let bad_items = vec![(1, 1), (2, 1), (3, 1), (4, 1), (9_999_999, 1)];
        let program = workload
            .new_order_program(&db, 1, 1, 1, bad_items.clone())
            .unwrap();
        assert_eq!(
            run_baseline_once(&db, program).unwrap(),
            TxnOutcome::Aborted
        );

        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        workload.bind_dora(&engine, 2).unwrap();
        let program = workload.new_order_program(&db, 1, 1, 1, bad_items).unwrap();
        assert!(engine.execute(program.compile_dora()).is_err());
        // District order counter must not have advanced permanently: both
        // attempts rolled back, so it still holds the loader's initial value
        // (one historical order per customer).
        let tables = workload.tables(&db).unwrap();
        let check = db.begin();
        let (_, district) = db
            .probe_primary(
                &check,
                tables.district,
                &Key::int2(1, 1),
                false,
                CcMode::Full,
            )
            .unwrap()
            .unwrap();
        assert_eq!(district[4], Value::Int(31));
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn payment_by_last_name_uses_secondary_index() {
        let (db, workload) = small_tpcc();
        // Customer 7's last name under the loader's naming scheme.
        let program = workload
            .payment_program(&db, 1, 1, 1, 1, CustomerSelector::ByLastNumber(7), 25.0)
            .unwrap();
        assert_eq!(
            run_baseline_once(&db, program).unwrap(),
            TxnOutcome::Committed
        );
    }

    #[test]
    fn full_mix_runs_on_both_engines() {
        let (db, workload) = small_tpcc();
        let mut rng = SmallRng::seed_from_u64(77);
        let mut baseline_committed = 0;
        for _ in 0..60 {
            if run_baseline_mix(&workload, &db, &mut rng) == TxnOutcome::Committed {
                baseline_committed += 1;
            }
        }
        assert!(
            baseline_committed > 30,
            "baseline committed only {baseline_committed}/60"
        );

        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        workload.bind_dora(&engine, 2).unwrap();
        let mut dora_committed = 0;
        for _ in 0..60 {
            if run_dora_mix(&workload, &engine, &mut rng) == TxnOutcome::Committed {
                dora_committed += 1;
            }
        }
        assert!(
            dora_committed > 30,
            "DORA committed only {dora_committed}/60"
        );
        engine.shutdown();
    }
}
