"""DataFrame graph ops, each cross-checked against DuckDB via the oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.core.uncertain import UncertainGraph
from repro.datasets import karate_club
from repro.oracle import assert_equivalent
from repro.spark_graph import (
    probabilistic_clustering_coefficient,
    probabilistic_density,
    triangles_df,
)


@pytest.fixture(scope="module")
def karate(spark):
    ug = karate_club()
    return ug, ug.to_df(spark).cache()


def test_triangles_oracle(spark, karate):
    _, edf = karate
    got = triangles_df(edf)
    assert_equivalent(
        got,
        """
        SELECT e1.u AS a, e1.v AS b, e2.v AS c,
               e1.p AS p_ab, e2.p AS p_ac, e3.p AS p_bc
        FROM edges e1
        JOIN edges e2 ON e1.u = e2.u AND e1.v < e2.v
        JOIN edges e3 ON e3.u = e1.v AND e3.v = e2.v
        """,
        edges=edf,
    )


def test_triangle_count_karate(spark, karate):
    _, edf = karate
    assert triangles_df(edf).count() == 45  # known for Zachary's club


def test_probabilistic_density_matches_pandas(spark, karate):
    ug, edf = karate
    U = frozenset(range(10))
    got = probabilistic_density(edf, U)
    pdf = ug.to_pdf()
    sub = pdf[pdf.u.isin(U) & pdf.v.isin(U)]
    exp = sub.p.sum() / (len(U) * (len(U) - 1) / 2)
    assert got == pytest.approx(exp)


def test_probabilistic_density_small_sets(spark, karate):
    _, edf = karate
    assert probabilistic_density(edf, frozenset({3})) == 0.0


def test_pcc_triangle_formula(spark):
    # single triangle with probs a, b, c:
    # PCC = 3abc / (ab + ac + bc)
    pdf = pd.DataFrame(
        {"u": [0, 0, 1], "v": [1, 2, 2], "p": [0.5, 0.6, 0.7]}
    )
    edf = spark.createDataFrame(pdf)
    got = probabilistic_clustering_coefficient(edf, frozenset({0, 1, 2}))
    a, b, c = 0.5, 0.6, 0.7
    exp = 3 * a * b * c / (a * b + a * c + b * c)
    assert got == pytest.approx(exp)


def test_pcc_no_wedges(spark):
    edf = spark.createDataFrame(pd.DataFrame({"u": [0], "v": [1], "p": [0.5]}))
    assert probabilistic_clustering_coefficient(edf, frozenset({0, 1})) == 0.0


def test_pcc_oracle_full_graph(spark, karate):
    """Triangle probability mass via Spark == via DuckDB SQL."""
    _, edf = karate
    got = triangles_df(edf).selectExpr(
        "sum(p_ab * p_ac * p_bc) AS tri_mass"
    )
    assert_equivalent(
        got,
        """
        SELECT sum(e1.p * e2.p * e3.p) AS tri_mass
        FROM edges e1
        JOIN edges e2 ON e1.u = e2.u AND e1.v < e2.v
        JOIN edges e3 ON e3.u = e1.v AND e3.v = e2.v
        """,
        edges=edf,
    )
