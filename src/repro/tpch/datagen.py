"""Deterministic TPC-H data generator.

Faithful to the dbgen *distributions* that matter for the six
evaluation queries (uniform keys, date ranges, TPC-H vocabulary for
flags/segments/types) while staying pure Python and exactly
reproducible from a seed.  The database is scaled by the lineitem row
count, with dimension tables kept at TPC-H's standard ratios:

========== ===========================
table      rows per lineitem row
========== ===========================
orders     1 / 4
customer   1 / 40
part       1 / 30
partsupp   1 / 7.5
supplier   1 / 600
nation     25 (fixed)
region     5 (fixed)
========== ===========================

Composite keys: TPC-H's ``partsupp`` has a compound primary key
(ps_partkey, ps_suppkey).  The circuits join on single keys, so the
generator materializes the packed synthetic key ``ps_pskey`` (and the
matching ``l_pskey`` on lineitem) -- the standard adaptation for
single-key join operators.
"""

from __future__ import annotations

import datetime
import logging
import random
from dataclasses import dataclass

from repro import telemetry
from repro.db.database import Database
from repro.db.schema import ColumnDef, TableSchema
from repro.db.types import DATE, DECIMAL, INT, STRING

logger = logging.getLogger("repro.tpch.datagen")

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
RETURN_FLAGS = ["A", "N", "R"]
LINE_STATUS = ["F", "O"]
PART_TYPES = [
    "ECONOMY ANODIZED STEEL", "ECONOMY BURNISHED COPPER",
    "LARGE BRUSHED BRASS", "MEDIUM POLISHED TIN", "PROMO PLATED NICKEL",
    "SMALL ANODIZED NICKEL", "STANDARD BURNISHED STEEL",
    "STANDARD POLISHED BRASS",
]
PRIORITIES = [0, 1, 2]

#: packed-key shift for (partkey, suppkey) composites.
PS_KEY_SHIFT = 1 << 20


@dataclass(frozen=True)
class Scale:
    lineitem: int
    orders: int
    customer: int
    part: int
    partsupp: int
    supplier: int


def scale_for_lineitem_rows(lineitem_rows: int) -> Scale:
    """The paper's scaling rule: quantify by lineitem, scale dimensions
    proportionally (TPC-H SF ratios)."""
    if lineitem_rows < 8:
        raise ValueError("need at least 8 lineitem rows")
    orders = max(2, lineitem_rows // 4)
    return Scale(
        lineitem=lineitem_rows,
        orders=orders,
        customer=max(2, lineitem_rows // 40),
        part=max(2, lineitem_rows // 30),
        partsupp=max(2, int(lineitem_rows // 7.5)),
        supplier=max(2, lineitem_rows // 600),
    )


def _schemas() -> dict[str, TableSchema]:
    return {
        "region": TableSchema(
            "region",
            [ColumnDef("r_regionkey", INT), ColumnDef("r_name", STRING)],
            primary_key="r_regionkey",
        ),
        "nation": TableSchema(
            "nation",
            [
                ColumnDef("n_nationkey", INT),
                ColumnDef("n_name", STRING),
                ColumnDef("n_regionkey", INT),
            ],
            primary_key="n_nationkey",
            foreign_keys={"n_regionkey": ("region", "r_regionkey")},
        ),
        "supplier": TableSchema(
            "supplier",
            [
                ColumnDef("s_suppkey", INT),
                ColumnDef("s_nationkey", INT),
                ColumnDef("s_acctbal", DECIMAL),
            ],
            primary_key="s_suppkey",
            foreign_keys={"s_nationkey": ("nation", "n_nationkey")},
        ),
        "customer": TableSchema(
            "customer",
            [
                ColumnDef("c_custkey", INT),
                ColumnDef("c_nationkey", INT),
                ColumnDef("c_mktsegment", STRING),
                ColumnDef("c_acctbal", DECIMAL),
            ],
            primary_key="c_custkey",
            foreign_keys={"c_nationkey": ("nation", "n_nationkey")},
        ),
        "part": TableSchema(
            "part",
            [
                ColumnDef("p_partkey", INT),
                ColumnDef("p_type", STRING),
                ColumnDef("p_size", INT),
                ColumnDef("p_retailprice", DECIMAL),
            ],
            primary_key="p_partkey",
        ),
        "partsupp": TableSchema(
            "partsupp",
            [
                ColumnDef("ps_pskey", INT),
                ColumnDef("ps_partkey", INT),
                ColumnDef("ps_suppkey", INT),
                ColumnDef("ps_availqty", INT),
                ColumnDef("ps_supplycost", DECIMAL),
            ],
            primary_key="ps_pskey",
            foreign_keys={
                "ps_partkey": ("part", "p_partkey"),
                "ps_suppkey": ("supplier", "s_suppkey"),
            },
        ),
        "orders": TableSchema(
            "orders",
            [
                ColumnDef("o_orderkey", INT),
                ColumnDef("o_custkey", INT),
                ColumnDef("o_orderdate", DATE),
                ColumnDef("o_shippriority", INT),
                ColumnDef("o_totalprice", DECIMAL),
            ],
            primary_key="o_orderkey",
            foreign_keys={"o_custkey": ("customer", "c_custkey")},
        ),
        "lineitem": TableSchema(
            "lineitem",
            [
                ColumnDef("l_orderkey", INT),
                ColumnDef("l_partkey", INT),
                ColumnDef("l_suppkey", INT),
                ColumnDef("l_pskey", INT),
                ColumnDef("l_quantity", INT),
                ColumnDef("l_extendedprice", DECIMAL),
                ColumnDef("l_discount", DECIMAL),
                ColumnDef("l_tax", DECIMAL),
                ColumnDef("l_returnflag", STRING),
                ColumnDef("l_linestatus", STRING),
                ColumnDef("l_shipdate", DATE),
            ],
            foreign_keys={
                "l_orderkey": ("orders", "o_orderkey"),
                "l_partkey": ("part", "p_partkey"),
                "l_suppkey": ("supplier", "s_suppkey"),
                "l_pskey": ("partsupp", "ps_pskey"),
            },
        ),
    }


def generate(lineitem_rows: int, seed: int = 19920873) -> Database:
    """Generate a scaled TPC-H database.  Deterministic in
    (lineitem_rows, seed)."""
    with telemetry.span("tpch.datagen", lineitem_rows=lineitem_rows, seed=seed):
        db = _generate(lineitem_rows, seed)
    logger.debug(
        "generated tpch database: %d lineitem rows, seed=%d, %d tables",
        lineitem_rows, seed, len(db.tables),
    )
    return db


def _generate(lineitem_rows: int, seed: int) -> Database:
    scale = scale_for_lineitem_rows(lineitem_rows)
    rng = random.Random(seed)
    schemas = _schemas()
    db = Database()

    db.create_table(
        schemas["region"], [(i + 1, name) for i, name in enumerate(REGIONS)]
    )
    db.create_table(
        schemas["nation"],
        [
            (i + 1, name, region + 1)
            for i, (name, region) in enumerate(NATIONS)
        ],
    )
    db.create_table(
        schemas["supplier"],
        [
            (i + 1, rng.randrange(1, len(NATIONS) + 1),
             round(rng.uniform(-999.99, 9999.99), 2) + 1000.0)
            for i in range(scale.supplier)
        ],
    )
    db.create_table(
        schemas["customer"],
        [
            (
                i + 1,
                rng.randrange(1, len(NATIONS) + 1),
                rng.choice(SEGMENTS),
                round(rng.uniform(0.0, 9999.99), 2),
            )
            for i in range(scale.customer)
        ],
    )
    db.create_table(
        schemas["part"],
        [
            (
                i + 1,
                rng.choice(PART_TYPES),
                rng.randrange(1, 51),
                round(900 + (i % 1000) / 10.0, 2),
            )
            for i in range(scale.part)
        ],
    )

    # partsupp: each part is stocked by a few suppliers.  At tiny scales
    # the distinct (part, supplier) space caps the row count.
    partsupp_target = min(scale.partsupp, scale.part * scale.supplier)
    partsupp_rows = []
    seen = set()
    while len(partsupp_rows) < partsupp_target:
        part = rng.randrange(1, scale.part + 1)
        supp = rng.randrange(1, scale.supplier + 1)
        if (part, supp) in seen:
            continue
        seen.add((part, supp))
        partsupp_rows.append(
            (
                part * PS_KEY_SHIFT + supp,
                part,
                supp,
                rng.randrange(1, 10000),
                round(rng.uniform(1.0, 1000.0), 2),
            )
        )
    db.create_table(schemas["partsupp"], partsupp_rows)

    start = datetime.date(1992, 1, 1)
    span_days = (datetime.date(1998, 8, 2) - start).days
    order_dates = {}
    orders_rows = []
    for i in range(scale.orders):
        orderdate = start + datetime.timedelta(days=rng.randrange(span_days))
        order_dates[i + 1] = orderdate
        orders_rows.append(
            (
                i + 1,
                rng.randrange(1, scale.customer + 1),
                orderdate.isoformat(),
                rng.choice(PRIORITIES),
                round(rng.uniform(850.0, 55000.0), 2),
            )
        )
    db.create_table(schemas["orders"], orders_rows)

    lineitem_rows_out = []
    ps_by_index = partsupp_rows
    for i in range(scale.lineitem):
        orderkey = rng.randrange(1, scale.orders + 1)
        ps = ps_by_index[rng.randrange(len(ps_by_index))]
        orderdate = order_dates[orderkey]
        shipdate = orderdate + datetime.timedelta(days=rng.randrange(1, 122))
        quantity = rng.randrange(1, 51)
        extended = round(quantity * rng.uniform(900.0, 2000.0), 2)
        lineitem_rows_out.append(
            (
                orderkey,
                ps[1],
                ps[2],
                ps[0],
                quantity,
                extended,
                round(rng.randrange(0, 11) / 100.0, 2),
                round(rng.randrange(0, 9) / 100.0, 2),
                rng.choice(RETURN_FLAGS),
                rng.choice(LINE_STATUS),
                shipdate.isoformat(),
            )
        )
    db.create_table(schemas["lineitem"], lineitem_rows_out)
    return db
