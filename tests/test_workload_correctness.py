"""Oracle checks for every workload family through every algorithm.

This is the paper's whole evaluation matrix in miniature: TPC-H Q18
(SUM), MODIS (MIN over a composite-encoded key), Amazon/Yelp (AVG),
executed through Repart/Preagg+Repart/LOOM/GRASP and compared with
DuckDB running the reference SQL over the same input.
"""
import pytest

from repro.engine.aggspec import avg_spec
from repro.experiments.harness import run_algorithm
from repro.minhash.hashing import HashFamily
from repro.netsim.topology import Topology
from repro.oracle import assert_equivalent
from repro.workloads.base import Workload
from repro.workloads.modis import modis_workload
from repro.workloads.reviews import reviews_workload
from repro.workloads.tpch import q18_workload

FAM = HashFamily(n=32, seed=7)
N = 4
TOPO = Topology(n_machines=2, frags_per_machine=2, nic_bw=118.0, intra_bw=2000.0)
ALGOS = ("repart", "preagg_repart", "loom", "grasp")


@pytest.fixture(scope="module")
def tpch(spark):
    return q18_workload(spark, sf=0.002, n_frags=N)


@pytest.fixture(scope="module")
def modis(spark):
    return modis_workload(spark, n_frags=N, n_files=12, tuples_per_file=400, n_tiles=3)


@pytest.fixture(scope="module")
def reviews(spark):
    return reviews_workload(spark, name="reviews", n_frags=N, n_reviews=3000, n_users=800)


class TestTpchQ18:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_to_one(self, tpch, algo):
        _, res = run_algorithm(
            tpch, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, tpch.sql, r=tpch.df)
        res.unpersist()

    def test_all_to_all_grasp(self, tpch):
        _, res = run_algorithm(
            tpch, "grasp", TOPO, mode="all_to_all", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, tpch.sql, r=tpch.df)
        res.unpersist()


class TestModisMin:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_to_one(self, modis, algo):
        _, res = run_algorithm(
            modis, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, modis.sql, r=modis.df)
        res.unpersist()

    def test_all_to_all_grasp(self, modis):
        _, res = run_algorithm(
            modis, "grasp", TOPO, mode="all_to_all", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, modis.sql, r=modis.df)
        res.unpersist()


class TestReviewsAvg:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_to_one(self, reviews, algo):
        _, res = run_algorithm(
            reviews, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, reviews.sql, r=reviews.df)
        res.unpersist()

    def test_all_to_all_preagg(self, reviews):
        # AVG's sum/count partials must merge correctly through the
        # multi-hop all-to-all path too.
        _, res = run_algorithm(
            reviews, "preagg_repart", TOPO, mode="all_to_all", family=FAM,
            keep_result=True,
        )
        assert_equivalent(res.final_df, reviews.sql, r=reviews.df)
        res.unpersist()


class TestAvgNullValues:
    """AVG counts only non-NULL values; a group of NULLs averages to NULL."""

    @staticmethod
    def _workload(spark, values):
        rows = [(f % N, 1, v) for f, v in enumerate(values)]
        return Workload(
            name="avg_nulls",
            df=spark.createDataFrame(rows, "frag int, k long, v long"),
            spec=avg_spec("k", "v", key_out="k", out="m"),
            sql="SELECT k, AVG(v) AS m FROM r GROUP BY k",
            n_frags=N,
        )

    @pytest.mark.parametrize("algo", ALGOS)
    def test_nulls_left_out_of_the_count(self, spark, algo):
        wl = self._workload(spark, [2, None, 4])
        _, res = run_algorithm(wl, algo, TOPO, family=FAM, keep_result=True)
        assert_equivalent(res.final_df, wl.sql, r=wl.df)  # 3.0, not 2.0
        res.unpersist()

    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_null_group_is_null(self, spark, algo):
        wl = self._workload(spark, [None, None])
        _, res = run_algorithm(wl, algo, TOPO, family=FAM, keep_result=True)
        assert_equivalent(res.final_df, wl.sql, r=wl.df)
        res.unpersist()


class TestComputeModelCorrectness:
    def test_compute_model_does_not_change_results(self, modis):
        from repro.netsim.truecost import ComputeModel

        _, res = run_algorithm(
            modis,
            "grasp",
            TOPO,
            mode="all_to_one",
            family=FAM,
            compute=ComputeModel(),
            keep_result=True,
        )
        assert_equivalent(res.final_df, modis.sql, r=modis.df)
        res.unpersist()
